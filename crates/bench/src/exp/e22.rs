//! E22 — Parallel + seekable inflate: member fan-out, the serial core for
//! single streams, and seek-index random access.
//!
//! `nx_core::parallel_inflate` (a) decodes multi-member gzip
//! member-per-worker, (b) decodes every single stream on the serial
//! core, and (c) serializes a [`SeekIndex`] (bit offset + window
//! snapshot per checkpoint) so `decompress_at` random-accesses a member
//! without inflating its prefix. A rapidgzip-style speculative
//! single-member path once sat beside (b); it ran at 0.12–0.16× of the
//! serial decode at every worker count on a 2-thread host, with a 50%
//! chunk miss rate, and was removed.
//!
//! * **Part A** sweeps worker count × stream shape (single member /
//!   multi-member) and reports decode MB/s against the serial walk. The
//!   single-member rows time the serial route, so they read ≈ 1.0×.
//! * **Part B** prices random access: build-index cost, serialized
//!   index size, and the latency of ranged reads at several depths —
//!   each against a timed prefix decode: an `Inflater` run from the
//!   member's first block until `offset + len` bytes are out.
//!
//! Every parallel decode, seek and prefix decode is verified
//! byte-identical to the payload before its timing is reported. `run()`
//! writes `BENCH_INFLATE_PAR.json`; `scripts/ci.sh` gates on the summary
//! row's `multi_member_4w_mb_per_s` against the committed baseline, and
//! on the two deep seek rows beating their prefix decode.
//!
//! Caveat: wall-clock speedup needs real cores. On a single-core host
//! the sweep still validates correctness and counters, but speedups
//! hover at or below 1.0x — the JSON records `host_threads` so readers
//! can interpret the figures.

use super::MetricRow;
use crate::{Table, SEED};
use nx_core::{software, Format, ParallelInflateOptions, ParallelInflater};
use nx_deflate::{gzip, CompressionLevel, Inflater};
use std::sync::OnceLock;
use std::time::Instant;

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Parallel inflate: member fan-out, serial single streams, seek index";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`). The CI gate parses the summary row of this file.
pub const JSON_PATH: &str = "BENCH_INFLATE_PAR.json";

/// Uncompressed payload length for both stream shapes.
const PAYLOAD_LEN: usize = 8 << 20;

/// Member size for the multi-member shape.
const MEMBER_LEN: usize = 1 << 20;

/// Worker counts swept in Part A.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Timed passes per cell; the minimum is reported.
const PASSES: usize = 3;

/// Ranged reads priced in Part B: (offset, len).
const SEEKS: [(u64, usize); 3] = [
    (64 << 10, 4 << 10),
    (4 << 20, 64 << 10),
    ((PAYLOAD_LEN as u64) - (256 << 10), 128 << 10),
];

/// One (shape, workers) cell of the Part A sweep.
struct DecodeCell {
    shape: &'static str,
    workers: usize,
    mb_per_s: f64,
    speedup: f64,
    identical: bool,
}

/// One ranged read of the Part B sweep.
struct SeekCell {
    offset: u64,
    len: usize,
    seek_us: f64,
    prefix_decode_us: f64,
    identical: bool,
}

struct Measured {
    cells: Vec<DecodeCell>,
    seeks: Vec<SeekCell>,
    serial_single_mb_per_s: f64,
    serial_multi_mb_per_s: f64,
    index_build_ms: f64,
    index_bytes: usize,
    index_checkpoints: usize,
    host_threads: usize,
    all_identical: bool,
}

/// Wall-clock seconds of one call to `f`.
fn timed<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Best-of-[`PASSES`] wall-clock seconds.
fn best_of<F: FnMut()>(mut f: F) -> f64 {
    let mut t = f64::INFINITY;
    for _ in 0..PASSES {
        t = t.min(timed(&mut f));
    }
    t
}

fn inflater(workers: usize) -> ParallelInflater {
    ParallelInflater::new(ParallelInflateOptions {
        workers,
        ..Default::default()
    })
}

/// Runs the sweep once per process; `run()` and [`metrics`] share it.
fn measured() -> &'static Measured {
    static CELL: OnceLock<Measured> = OnceLock::new();
    CELL.get_or_init(|| {
        let payload = nx_corpus::mixed(SEED, PAYLOAD_LEN);
        let level = CompressionLevel::default();
        let single = software::compress(&payload, level, Format::Gzip);
        let multi: Vec<u8> = payload
            .chunks(MEMBER_LEN)
            .flat_map(|c| software::compress(c, level, Format::Gzip))
            .collect();

        let mut all_identical = true;

        // Serial baselines through the same members-walk the parallel
        // path falls back to.
        let reference = inflater(1);
        let t_single = best_of(|| {
            std::hint::black_box(
                reference
                    .decompress_serial(&single, Format::Gzip)
                    .expect("serial")
                    .len(),
            );
        });
        let t_multi = best_of(|| {
            std::hint::black_box(
                reference
                    .decompress_serial(&multi, Format::Gzip)
                    .expect("serial")
                    .len(),
            );
        });

        let mut cells = Vec::new();
        for (shape, stream, t_serial) in [
            ("single-member", &single, t_single),
            ("multi-member", &multi, t_multi),
        ] {
            for workers in WORKERS {
                let inf = inflater(workers);
                let out = inf.decompress(stream, Format::Gzip).expect("parallel");
                let identical = out == payload;
                all_identical &= identical;
                let t = best_of(|| {
                    std::hint::black_box(
                        inf.decompress(stream, Format::Gzip)
                            .expect("parallel")
                            .len(),
                    );
                });
                cells.push(DecodeCell {
                    shape,
                    workers,
                    mb_per_s: payload.len() as f64 / t / 1e6,
                    speedup: t_serial / t,
                    identical,
                });
            }
        }

        // Part B: the seek index over the single-member stream.
        let inf = inflater(4);
        let mut index_opt = None;
        let index_build_ms = best_of(|| {
            index_opt = Some(inf.build_index(&single, Format::Gzip).expect("index"));
        }) * 1e3;
        let index = index_opt.expect("index built");
        let index_bytes = index.to_bytes().len();
        let (_, member_start) = gzip::parse_header(&single).expect("gzip header");
        let member = &single[member_start..];
        let mut seeks = Vec::new();
        for (offset, len) in SEEKS {
            let out = inf
                .decompress_at(&single, &index, offset, len)
                .expect("seek");
            let identical = out == payload[offset as usize..offset as usize + len];
            all_identical &= identical;
            let seek_us = best_of(|| {
                std::hint::black_box(
                    inf.decompress_at(&single, &index, offset, len)
                        .expect("seek")
                        .len(),
                );
            }) * 1e6;
            // What the same read costs without the index: decode from
            // the member's first block until the range is out, then slice.
            let end = offset as usize + len;
            let prefix_decode = || {
                let mut inf = Inflater::new(member);
                inf.reserve_output(end);
                while !inf.is_finished() && inf.output().len() < end {
                    inf.decode_block(usize::MAX).expect("prefix decode");
                }
                inf
            };
            let prefix_ok = prefix_decode().output().get(offset as usize..end)
                == Some(&payload[offset as usize..end]);
            all_identical &= prefix_ok;
            let prefix_decode_us = best_of(|| {
                std::hint::black_box(prefix_decode().output().len());
            }) * 1e6;
            seeks.push(SeekCell {
                offset,
                len,
                seek_us,
                prefix_decode_us,
                identical: identical && prefix_ok,
            });
        }

        Measured {
            cells,
            seeks,
            serial_single_mb_per_s: payload.len() as f64 / t_single / 1e6,
            serial_multi_mb_per_s: payload.len() as f64 / t_multi / 1e6,
            index_build_ms,
            index_bytes,
            index_checkpoints: index.checkpoints().len(),
            host_threads: std::thread::available_parallelism().map_or(1, usize::from),
            all_identical,
        }
    })
}

/// The Part A cell for `shape` at `workers`.
fn cell_for<'m>(m: &'m Measured, shape: &str, workers: usize) -> &'m DecodeCell {
    m.cells
        .iter()
        .find(|c| c.shape == shape && c.workers == workers)
        .expect("swept cell")
}

/// Renders the machine-readable rows ([`JSON_PATH`]).
fn render_json(m: &Measured) -> String {
    let mut rows: Vec<String> = m
        .cells
        .iter()
        .map(|c| {
            format!(
                "  {{\"section\": \"decode\", \"shape\": \"{}\", \"workers\": {}, \
                 \"mb_per_s\": {:.3}, \"speedup\": {:.3}, \"identical\": {}}}",
                c.shape, c.workers, c.mb_per_s, c.speedup, c.identical,
            )
        })
        .collect();
    for s in &m.seeks {
        rows.push(format!(
            "  {{\"section\": \"seek\", \"offset\": {}, \"len\": {}, \"seek_us\": {:.1}, \
             \"prefix_decode_us\": {:.1}, \"identical\": {}}}",
            s.offset, s.len, s.seek_us, s.prefix_decode_us, s.identical,
        ));
    }
    rows.push(format!(
        "  {{\"section\": \"summary\", \"serial_mb_per_s\": {:.3}, \
         \"serial_multi_mb_per_s\": {:.3}, \"multi_member_4w_mb_per_s\": {:.3}, \
         \"speedup_multi_4w\": {:.3}, \"index_build_ms\": {:.2}, \"index_bytes\": {}, \
         \"index_checkpoints\": {}, \
         \"host_threads\": {}, \"all_identical\": {}}}",
        m.serial_single_mb_per_s,
        m.serial_multi_mb_per_s,
        cell_for(m, "multi-member", 4).mb_per_s,
        cell_for(m, "multi-member", 4).speedup,
        m.index_build_ms,
        m.index_bytes,
        m.index_checkpoints,
        m.host_threads,
        m.all_identical,
    ));
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Machine-readable rows for `tables --json`.
pub fn metrics() -> Vec<MetricRow> {
    let m = measured();
    vec![
        MetricRow::new("inflate_serial_mb_per_s", m.serial_single_mb_per_s, "MB/s"),
        MetricRow::new(
            "multi_member_4w_mb_per_s",
            cell_for(m, "multi-member", 4).mb_per_s,
            "MB/s",
        ),
        MetricRow::new(
            "speedup_multi_4w",
            cell_for(m, "multi-member", 4).speedup,
            "ratio",
        ),
        MetricRow::new("index_build_ms", m.index_build_ms, "us"),
        MetricRow::new("index_bytes", m.index_bytes as f64, "bytes"),
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

    let mut table = Table::new(vec!["shape", "workers", "MB/s", "vs serial", "verified"]);
    for c in &m.cells {
        table.row(vec![
            c.shape.to_string(),
            c.workers.to_string(),
            format!("{:.1}", c.mb_per_s),
            format!("{:.2}x", c.speedup),
            if c.identical { "ok" } else { "FAIL" }.to_string(),
        ]);
    }

    let mut seek_table = Table::new(vec!["offset", "len", "seek us", "prefix-decode us", "win"]);
    for s in &m.seeks {
        seek_table.row(vec![
            s.offset.to_string(),
            s.len.to_string(),
            format!("{:.1}", s.seek_us),
            format!("{:.1}", s.prefix_decode_us),
            format!("{:.1}x", s.prefix_decode_us / s.seek_us.max(1e-9)),
        ]);
    }

    let json = render_json(m);
    let json_note = match std::fs::write(JSON_PATH, &json) {
        Ok(()) => format!("rows written to `{JSON_PATH}`"),
        Err(err) => format!("could not write `{JSON_PATH}`: {err}"),
    };

    format!(
        "## E22 — {TITLE}\n\nHeadline: an {} MiB payload decodes serially at {:.1} MB/s; at \
         4 workers the member-per-worker path runs at {:.1} MB/s ({:.2}x) and a single member \
         takes the serial route at {:.1} MB/s ({:.2}x). \
         Host exposes {} thread(s) — speedups need real cores.\n\n{}\n\
         Seek index: {} checkpoints, {} KiB serialized, built in {:.1} ms (one serial decode). \
         Ranged reads vs a timed prefix decode:\n\n{}\n\
         All outputs byte-identical to serial: {}.\n\n{json_note}\n",
        PAYLOAD_LEN >> 20,
        m.serial_single_mb_per_s,
        cell_for(m, "multi-member", 4).mb_per_s,
        cell_for(m, "multi-member", 4).speedup,
        cell_for(m, "single-member", 4).mb_per_s,
        cell_for(m, "single-member", 4).speedup,
        m.host_threads,
        table.render(),
        m.index_checkpoints,
        m.index_bytes >> 10,
        m.index_build_ms,
        seek_table.render(),
        m.all_identical,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed() {
        let m = Measured {
            cells: WORKERS
                .iter()
                .flat_map(|&w| {
                    ["single-member", "multi-member"].map(|shape| DecodeCell {
                        shape,
                        workers: w,
                        mb_per_s: 100.0 * w as f64,
                        speedup: w as f64 * 0.9,
                        identical: true,
                    })
                })
                .collect(),
            seeks: vec![SeekCell {
                offset: 4096,
                len: 1024,
                seek_us: 120.0,
                prefix_decode_us: 900.0,
                identical: true,
            }],
            serial_single_mb_per_s: 110.0,
            serial_multi_mb_per_s: 115.0,
            index_build_ms: 80.0,
            index_bytes: 300 << 10,
            index_checkpoints: 8,
            host_threads: 4,
            all_identical: true,
        };
        let json = render_json(&m);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("{\"section\"").count(), 10);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"multi_member_4w_mb_per_s\": 400.000"));
        for gone in [
            "single_member_4w_mb_per_s",
            "speedup_single_4w",
            "speculation_miss_rate",
            "marker_patch_bytes",
        ] {
            assert!(!json.contains(gone), "{gone} is no longer reported");
        }
        assert!(json.contains("\"all_identical\": true"));
        assert!(json.contains("\"serial_multi_mb_per_s\": 115.000"));
    }

    #[test]
    fn parallel_decode_matches_serial_on_a_small_sweep() {
        let payload = nx_corpus::mixed(SEED ^ 0xE22, 512 << 10);
        let level = CompressionLevel::default();
        let single = software::compress(&payload, level, Format::Gzip);
        let multi: Vec<u8> = payload
            .chunks(128 << 10)
            .flat_map(|c| software::compress(c, level, Format::Gzip))
            .collect();
        for workers in WORKERS {
            let inf = ParallelInflater::new(ParallelInflateOptions {
                workers,
                ..Default::default()
            });
            assert_eq!(
                inf.decompress(&single, Format::Gzip).expect("single"),
                payload
            );
            assert_eq!(
                inf.decompress(&multi, Format::Gzip).expect("multi"),
                payload
            );
        }
    }
}
