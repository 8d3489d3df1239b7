//! The `bulk` part of a run: one caller in a closed loop over the
//! workload's 4 MiB buffers.
//!
//! Every round makes five calls on one buffer: gzip at `Fastest` through
//! the `Nx` facade, gzip at level 6 through `software::compress`, and
//! three gunzips of the level-6 member (one-shot, `InflateStream::push`
//! fed socket-sized pieces, and the two-worker parallel inflater). The
//! buffers are far larger than the 32 KiB window and the L2, so the
//! software codec layers do the work and the cycle model and service do
//! none. Compress and decompress share every round, so a change to shared
//! tables that helps one side and costs the other shows in the same run.

use crate::trace::Tracer;
use crate::util::{gzip_oracle, mb_per_s, median, Inputs, Outcome, Rng, BUF_LEN, COUNTED_ROUNDS};
use crate::Part;
use nx_core::{software, CompressOptions, Format, Nx, ParallelInflateOptions};
use nx_deflate::bitio::BitWriter;
use nx_deflate::crc32::crc32;
use nx_deflate::encoder::{
    encode_fixed_block, encode_stored, fixed_block_bits, DynamicPlan, MAX_BLOCK_BYTES,
    MAX_BLOCK_TOKENS, MAX_STORED_BLOCK,
};
use nx_deflate::lz77::Histogram;
use nx_deflate::{
    decode_path_counters, deflate_tokens_with, encode_counters, gzip, inflate_into,
    CompressionLevel, Engine, InflateScratch, InflateStream, Level, Strategy, Token,
};
use std::collections::BTreeMap;
use std::time::Instant;

const PUSH_MIN: usize = 64;
const PUSH_MAX: usize = 16 << 10;
const PARALLEL_WORKERS: usize = 2;

pub struct Bulk {
    nx: Nx,
    inputs: Inputs,
    rng: Rng,
    round: usize,
    /// Per-round seconds of the five calls: fastest, level 6, one-shot,
    /// stream and parallel gunzip.
    times: [Vec<f64>; 5],
    // Bytes over the counted rounds.
    in_bytes: usize,
    fast_out: usize,
    def_out: usize,
    lay: Layers,
}

fn fastest() -> CompressOptions {
    CompressOptions::from_level(Level::Fastest)
}

fn level(n: u32) -> CompressionLevel {
    CompressionLevel::new(n).expect("levels 1 and 6 are valid")
}

fn parallel_opts() -> ParallelInflateOptions {
    ParallelInflateOptions {
        workers: PARALLEL_WORKERS,
        ..ParallelInflateOptions::default()
    }
}

pub fn setup(seed: u64, inputs: Inputs) -> Bulk {
    nx_core::profiles::default_registry();
    let nx = Nx::power9();
    // Warm-up: every path once on a slice, so lazy tables and first-touch
    // allocations are paid here and not in the first measured round.
    let w = &inputs.warmup();
    let _ = nx.compress_with(w, Format::Gzip, fastest());
    let gz = software::compress(w, level(6), Format::Gzip);
    let _ = software::decompress(&gz, Format::Gzip);
    let _ = stream_gunzip(&gz, &[4096], None);
    let _ = nx.decompress_parallel_with(&gz, Format::Gzip, parallel_opts());
    Bulk {
        nx,
        inputs,
        rng: Rng::new(seed, "bulk.push"),
        round: 0,
        times: Default::default(),
        in_bytes: 0,
        fast_out: 0,
        def_out: 0,
        lay: Layers::default(),
    }
}

/// Gunzips one member through `InflateStream::push`, fed in pieces of
/// `sizes` (cycled), the way a socket reader would: the header is parsed
/// once enough bytes arrived, the trailer is checked at the end.
/// Returns the output and the number of pushes.
fn stream_gunzip(
    gz: &[u8],
    sizes: &[usize],
    mut tr: Option<&mut Tracer>,
) -> Result<(Vec<u8>, u64), String> {
    let mut dec = InflateStream::new();
    let mut out = Vec::new();
    let mut head: Vec<u8> = Vec::new();
    let mut header_done = false;
    let (mut pos, mut pushes) = (0usize, 0u64);
    let mut k = 0usize;
    while pos < gz.len() && !dec.is_finished() {
        let end = (pos + sizes[k % sizes.len()]).min(gz.len());
        k += 1;
        let mut chunk = &gz[pos..end];
        pos = end;
        if !header_done {
            head.extend_from_slice(chunk);
            let parsed = match tr.as_deref_mut() {
                Some(t) => t.span("gzip.frame", |_| gzip::parse_header(&head)),
                None => gzip::parse_header(&head),
            };
            match parsed {
                Ok((_, hlen)) => {
                    header_done = true;
                    chunk = &head[hlen..];
                }
                Err(nx_deflate::Error::UnexpectedEof) => continue,
                Err(e) => return Err(format!("stream gunzip header: {e}")),
            }
        }
        let piece = match tr.as_deref_mut() {
            Some(t) => t.span("stream.push", |_| dec.push(chunk)),
            None => dec.push(chunk),
        }
        .map_err(|e| format!("stream gunzip: {e}"))?;
        out.extend_from_slice(&piece);
        pushes += 1;
    }
    if !dec.is_finished() || gz.len() < 8 {
        return Err("stream gunzip: member ended early".into());
    }
    let check = |out: &Vec<u8>| {
        let t = &gz[gz.len() - 8..];
        let crc = u32::from_le_bytes([t[0], t[1], t[2], t[3]]);
        let len = u32::from_le_bytes([t[4], t[5], t[6], t[7]]);
        crc == crc32(out) && len == out.len() as u32
    };
    let ok = match tr {
        Some(t) => t.span("crc32", |_| check(&out)),
        None => check(&out),
    };
    if !ok {
        return Err("stream gunzip: trailer mismatch".into());
    }
    Ok((out, pushes))
}

/// Raw DEFLATE of `data` built from the encoder's public layer calls in
/// the order `Encoder::compress` makes them: tokenize, then per block the
/// histogram and cost plan, then the cheapest block's emission.
fn composed_deflate(t: &mut Tracer, data: &[u8], lvl: CompressionLevel) -> Vec<u8> {
    let tokens = t.span("lz77", |_| {
        deflate_tokens_with(data, lvl, Strategy::Default, Engine::Auto)
    });
    t.span("encoder", |t| {
        let mut w = BitWriter::with_capacity(data.len() / 2 + 64);
        if tokens.is_empty() {
            encode_fixed_block(&mut w, &[], true);
            return w.finish();
        }
        let mut hist = Histogram::new();
        let (mut start_tok, mut start_byte) = (0usize, 0usize);
        while start_tok < tokens.len() {
            let (end_tok, span, plan, stored, fixed, dynamic) = t.span("encoder.plan", |_| {
                hist.clear();
                let (mut i, mut span) = (start_tok, 0usize);
                loop {
                    hist.record(tokens[i]);
                    span += tokens[i].input_len();
                    i += 1;
                    if i == tokens.len()
                        || i - start_tok >= MAX_BLOCK_TOKENS
                        || span >= MAX_BLOCK_BYTES
                    {
                        break;
                    }
                }
                hist.record_end_of_block();
                let plan = DynamicPlan::from_histogram(&hist);
                let dynamic = plan.header_bits() + plan.body_bits(&hist);
                let fixed = fixed_block_bits(&hist);
                let chunks = span.div_ceil(MAX_STORED_BLOCK).max(1) as u64;
                let stored = 7 + chunks * (3 + 32 + 4) + span as u64 * 8;
                (i, span, plan, stored, fixed, dynamic)
            });
            let is_final = end_tok == tokens.len();
            let (bytes, toks) = (
                &data[start_byte..start_byte + span],
                &tokens[start_tok..end_tok],
            );
            t.span("encoder.emit", |_| {
                if stored < dynamic.min(fixed) {
                    encode_stored(&mut w, bytes, is_final);
                } else if fixed <= dynamic {
                    encode_fixed_block(&mut w, toks, is_final);
                } else {
                    plan.write_header(&mut w, is_final);
                    plan.write_body(&mut w, toks);
                }
            });
            start_tok = end_tok;
            start_byte += span;
        }
        w.finish()
    })
}

/// A gzip member built from layer calls: deflate, CRC-32, framing.
fn composed_gzip(t: &mut Tracer, data: &[u8], lvl: CompressionLevel) -> Vec<u8> {
    let raw = composed_deflate(t, data, lvl);
    let crc = t.span("crc32", |_| crc32(data));
    t.span("gzip.frame", |_| {
        gzip::wrap_deflate(&raw, crc, data.len() as u64)
    })
}

/// One-shot gunzip from layer calls: header, inflate with reused
/// scratch, trailer check.
fn composed_gunzip(
    t: &mut Tracer,
    gz: &[u8],
    scratch: &mut InflateScratch,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let hlen = t
        .span("gzip.frame", |_| gzip::parse_header(gz))
        .map_err(|e| format!("gunzip header: {e}"))?
        .1;
    if gz.len() < hlen + 8 {
        return Err("gunzip: member too short".into());
    }
    t.span("decoder", |_| {
        inflate_into(&gz[hlen..gz.len() - 8], scratch, out)
    })
    .map_err(|e| format!("gunzip: {e}"))?;
    let tail = &gz[gz.len() - 8..];
    let ok = t.span("crc32", |_| {
        u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) == crc32(out)
            && u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]]) == out.len() as u32
    });
    if ok {
        Ok(())
    } else {
        Err("gunzip: trailer mismatch".into())
    }
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Layers {
    /// Per-round self time of each layer, in seconds.
    per_round: BTreeMap<&'static str, Vec<f64>>,
    tokenize_share_l1: Vec<f64>,
    tokenize_share_l6: Vec<f64>,
    amplification: Vec<f64>,
    raw_inflate: Vec<f64>,
    crc32_rate: Vec<f64>,
    adler32_rate: Vec<f64>,
    // Counts over the counted rounds.
    tokens: u64,
    match_bytes: u64,
    token_input: u64,
    blocks: [u64; 3],
    fast_bytes: u64,
    careful_bytes: u64,
    pushes: u64,
    par: [u64; 4],
    /// Inflate scratch and output reused across rounds.
    scratch: InflateScratch,
    out: Vec<u8>,
}

/// What the untraced calls of one round worked on and cost.
struct Round<'a> {
    buf: &'a [u8],
    fast: &'a [u8],
    def: &'a [u8],
    sizes: &'a [usize],
    /// Seconds of the round's five facade calls.
    facade_s: f64,
    par_s: f64,
    /// Parallel-inflate counters before and after the call.
    par: [[u64; 4]; 2],
    counted: bool,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        self.per_round.entry(name).or_default().push(v);
    }
}

/// Tokenize share of a raw deflate op: tokenizer self time over the
/// tokenizer plus encoder self time.
fn tokenize_share(op: &BTreeMap<&'static str, f64>) -> f64 {
    let get = |k: &str| op.get(k).copied().unwrap_or(0.0);
    let tok = get("lz77");
    tok / (tok + get("encoder") + get("encoder.plan") + get("encoder.emit"))
}

impl Part for Bulk {
    fn step(&mut self, _budget_s: f64, o: &mut Outcome, tr: Option<&mut Tracer>) {
        let round = self.round;
        self.round += 1;
        let buf = &self.inputs.buffer(round);
        let counted = round < COUNTED_ROUNDS;
        let mut sizes = Vec::new();
        let mut covered = 0usize;
        while covered < buf.len() {
            let n = self.rng.log_uniform(PUSH_MIN, PUSH_MAX);
            sizes.push(n);
            covered += n;
        }

        let t = Instant::now();
        let fast = self.nx.compress_with(buf, Format::Gzip, fastest());
        let fast_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let def = software::compress(buf, level(6), Format::Gzip);
        let def_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let inflated = software::decompress(&def, Format::Gzip);
        let inf_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let streamed = stream_gunzip(&def, &sizes, None);
        let stream_s = t.elapsed().as_secs_f64();
        let par0 = par_counts(&self.nx);
        let t = Instant::now();
        let par = self
            .nx
            .decompress_parallel_with(&def, Format::Gzip, parallel_opts());
        let par_s = t.elapsed().as_secs_f64();
        let par1 = par_counts(&self.nx);

        // Verification, outside the timed calls.
        let fast = match fast {
            Ok(c) => c.bytes,
            Err(e) => {
                o.op(false, || format!("fastest compress: {e}"));
                Vec::new()
            }
        };
        if !fast.is_empty() {
            let back = gzip::decompress(&fast);
            o.op(back.as_deref() == Ok(buf.as_slice()), || {
                format!("bulk round {round}: fastest member does not round-trip")
            });
        }
        o.op(inflated.as_deref() == Ok(buf.as_slice()), || {
            format!("bulk round {round}: level-6 member does not round-trip")
        });
        let stream_ok = matches!(&streamed, Ok((out, _)) if out == buf);
        o.op(stream_ok, || {
            format!(
                "bulk round {round}: stream gunzip: {:?}",
                streamed.as_ref().err()
            )
        });
        o.op(par.as_deref() == Ok(buf.as_slice()), || {
            format!("bulk round {round}: parallel gunzip differs")
        });
        if round == 0 {
            // The external oracle on both members of the first round.
            let mut both = fast.clone();
            both.extend_from_slice(&def);
            let mut expect = buf.clone();
            expect.extend_from_slice(buf);
            if let Err(e) = gzip_oracle(&both, &expect) {
                o.fail(e);
            }
        }
        if counted {
            self.in_bytes += buf.len();
            self.fast_out += fast.len();
            self.def_out += def.len();
        }
        for (v, s) in self
            .times
            .iter_mut()
            .zip([fast_s, def_s, inf_s, stream_s, par_s])
        {
            v.push(s);
        }

        if let Some(t) = tr {
            let r = Round {
                buf,
                fast: &fast,
                def: &def,
                sizes: &sizes,
                facade_s: fast_s + def_s + inf_s + stream_s + par_s,
                par_s,
                par: [par0, par1],
                counted,
            };
            traced_round(t, o, &mut self.lay, &r);
        }
    }

    fn done(&self, used_s: f64, budget_s: f64) -> bool {
        self.round >= COUNTED_ROUNDS && used_s >= budget_s
    }

    fn finish(&mut self, o: &mut Outcome, tr: Option<&mut Tracer>) {
        let mbs = |t: &[f64]| mb_per_s(t, BUF_LEN);
        let [fast_t, def_t, inf_t, stream_t, par_t] = &self.times;
        match tr {
            None => {
                let in_bytes = self.in_bytes as f64;
                o.metric("fastest_mb_per_s", mbs(fast_t), "MB/s");
                o.metric("fastest_ratio", in_bytes / self.fast_out as f64, "ratio");
                o.metric("default_mb_per_s", mbs(def_t), "MB/s");
                o.metric("default_ratio", in_bytes / self.def_out as f64, "ratio");
                o.metric("inflate_mb_per_s", mbs(inf_t), "MB/s");
                o.metric("stream_inflate_mb_per_s", mbs(stream_t), "MB/s");
                o.metric("parallel_inflate_mb_per_s", mbs(par_t), "MB/s");
            }
            Some(_) => self.layer_metrics(o, &self.lay, mbs(inf_t)),
        }
    }
}

impl Bulk {
    fn layer_metrics(&self, o: &mut Outcome, lay: &Layers, gunzip_mbs: f64) {
        let m = |k: &str| median(lay.per_round.get(k).map_or(&[][..], Vec::as_slice));
        o.metric("lz77.tokenize_s", m("lz77"), "s");
        o.metric("lz77.tokens", lay.tokens as f64, "count");
        o.metric(
            "lz77.match_byte_share",
            lay.match_bytes as f64 / lay.token_input as f64,
            "share",
        );
        o.metric("encoder.plan_s", m("encoder.plan") + m("encoder"), "s");
        o.metric("encoder.emit_s", m("encoder.emit"), "s");
        o.metric("encoder.dynamic_blocks", lay.blocks[0] as f64, "count");
        o.metric("encoder.fixed_blocks", lay.blocks[1] as f64, "count");
        o.metric("encoder.stored_blocks", lay.blocks[2] as f64, "count");
        o.metric("crc32.s", m("crc32"), "s");
        o.metric("gzip.frame_s", m("gzip.frame"), "s");
        o.metric("decoder.inflate_s", m("decoder"), "s");
        let dp = lay.fast_bytes + lay.careful_bytes;
        o.metric(
            "decoder.fast_share",
            lay.fast_bytes as f64 / dp.max(1) as f64,
            "share",
        );
        o.metric("stream.push_s", m("stream.push"), "s");
        o.metric("stream.pushes", lay.pushes as f64, "count");
        o.metric("stream.amplification", median(&lay.amplification), "ratio");
        o.metric("parallel_inflate.s", m("parallel_inflate"), "s");
        o.metric(
            "parallel_inflate.chunks_decoded",
            lay.par[0] as f64,
            "count",
        );
        o.metric(
            "parallel_inflate.speculation_misses",
            lay.par[1] as f64,
            "count",
        );
        // Speculative attempts either decode a chunk or are abandoned.
        o.metric(
            "parallel_inflate.miss_rate",
            lay.par[1] as f64 / (lay.par[0] + lay.par[1]).max(1) as f64,
            "share",
        );
        o.metric(
            "parallel_inflate.serial_fallbacks",
            lay.par[2] as f64,
            "count",
        );
        o.metric(
            "parallel_inflate.marker_patch_bytes",
            lay.par[3] as f64,
            "count",
        );
        // The ROADMAP re-anchor figures, measured here (no gate).
        o.metric("reanchor.gunzip_mb_per_s", gunzip_mbs, "MB/s");
        o.metric(
            "reanchor.raw_inflate_mb_per_s",
            median(&lay.raw_inflate),
            "MB/s",
        );
        o.metric("reanchor.crc32_gb_per_s", median(&lay.crc32_rate), "GB/s");
        o.metric(
            "reanchor.adler32_gb_per_s",
            median(&lay.adler32_rate),
            "GB/s",
        );
        o.metric(
            "reanchor.tokenize_share_l1",
            median(&lay.tokenize_share_l1),
            "share",
        );
        o.metric(
            "reanchor.tokenize_share_l6",
            median(&lay.tokenize_share_l6),
            "share",
        );
    }
}

/// `[chunks_decoded, speculation_misses, serial_fallbacks,
/// marker_patch_bytes]` of the handle's parallel-inflate counters.
fn par_counts(nx: &Nx) -> [u64; 4] {
    let s = nx.decode_parallel_stats();
    [
        s.chunks_decoded(),
        s.speculation_misses(),
        s.serial_fallbacks(),
        s.marker_patch_bytes(),
    ]
}

/// Repeats a round's work from the layers' public calls inside spans,
/// checks it against the facade's output and records the split.
fn traced_round(t: &mut Tracer, o: &mut Outcome, lay: &mut Layers, r: &Round) {
    let Round {
        buf,
        fast,
        def,
        sizes,
        ..
    } = *r;
    let from = t.len();
    let enc0 = encode_counters();
    let fast_at = t.len();
    let c1 = t.span("compress.fastest", |t| composed_gzip(t, buf, level(1)));
    let def_at = t.len();
    let c6 = t.span("compress.default", |t| composed_gzip(t, buf, level(6)));
    let enc1 = encode_counters();
    o.op(c1 == fast, || {
        "composed level-1 encode differs from the facade's".into()
    });
    o.op(c6 == def, || {
        "composed level-6 encode differs from the facade's".into()
    });

    let (dp0f, dp0c) = decode_path_counters();
    let inf_at = t.len();
    let (scratch, out) = (&mut lay.scratch, &mut lay.out);
    let g = t.span("gunzip.oneshot", |t| composed_gunzip(t, def, scratch, out));
    let (dp1f, dp1c) = decode_path_counters();
    o.op(g.is_ok() && lay.out.as_slice() == buf, || {
        format!("composed gunzip: {g:?}")
    });
    let stream_at = t.len();
    let s = t.span("gunzip.stream", |t| stream_gunzip(def, sizes, Some(t)));
    o.op(matches!(&s, Ok((v, _)) if v == buf), || {
        "traced stream gunzip differs".into()
    });
    // The parallel inflater is one call: its untraced time is its span.
    let now = Instant::now();
    let root = t.record(
        "gunzip.parallel",
        now - std::time::Duration::from_secs_f64(r.par_s),
        now,
        0,
    );
    t.record(
        "parallel_inflate",
        now - std::time::Duration::from_secs_f64(r.par_s),
        now,
        root,
    );
    let end = t.len();

    let all = t.self_times(from, end);
    for (k, v) in &all {
        lay.add(k, *v);
    }
    let op_fast = t.self_times(fast_at, def_at);
    let op_def = t.self_times(def_at, inf_at);
    lay.tokenize_share_l1.push(tokenize_share(&op_fast));
    lay.tokenize_share_l6.push(tokenize_share(&op_def));
    let decoder_s = all.get("decoder").copied().unwrap_or(f64::NAN);
    let push_s = t
        .self_times(stream_at, end)
        .get("stream.push")
        .copied()
        .unwrap_or(0.0);
    lay.amplification.push(push_s / decoder_s);
    lay.raw_inflate.push(buf.len() as f64 / decoder_s / 1e6);
    let crc_once = op_fast.get("crc32").copied().unwrap_or(f64::NAN);
    lay.crc32_rate.push(buf.len() as f64 / crc_once / 1e9);
    let overhead = t.root_time(from, end) / r.facade_s - 1.0;
    t.note_overhead("bulk", overhead);
    // The Adler-32 rate on the same buffer, outside any operation.
    let a = Instant::now();
    std::hint::black_box(nx_deflate::adler32::adler32(std::hint::black_box(buf)));
    lay.adler32_rate
        .push(buf.len() as f64 / a.elapsed().as_secs_f64() / 1e9);

    if r.counted {
        for lvl in [1, 6] {
            let toks = deflate_tokens_with(buf, level(lvl), Strategy::Default, Engine::Auto);
            lay.tokens += toks.len() as u64;
            lay.token_input += buf.len() as u64;
            lay.match_bytes += toks
                .iter()
                .filter(|t| matches!(t, Token::Match { .. }))
                .map(|t| t.input_len() as u64)
                .sum::<u64>();
        }
        lay.blocks[0] += enc1.blocks_dynamic - enc0.blocks_dynamic;
        lay.blocks[1] += enc1.blocks_fixed - enc0.blocks_fixed;
        lay.blocks[2] += enc1.blocks_stored - enc0.blocks_stored;
        lay.fast_bytes += dp1f - dp0f;
        lay.careful_bytes += dp1c - dp0c;
        lay.pushes += s.as_ref().map_or(0, |(_, n)| *n);
        for (total, (after, before)) in lay.par.iter_mut().zip(r.par[1].iter().zip(r.par[0])) {
            *total += after - before;
        }
    }
}
