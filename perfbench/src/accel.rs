//! The `accel` part of a run: one caller in a closed loop through
//! `Nx::power9()`'s default `compress` and `decompress` (gzip) on the
//! workload's 4 MiB buffers, the same ones the `bulk` part uses.
//!
//! This is the README's three-line library path. Its host time is the
//! bit-exact cycle model (matcher, Huffman encoder and decompressor of
//! `nx-accel`); the software tokenizer does no work here. It also carries
//! the paper's simulated throughput, which is a count: it must repeat
//! exactly for the same input on the same build.

use crate::trace::Tracer;
use crate::util::{gzip_oracle, mb_per_s, median, Inputs, Outcome, BUF_LEN, COUNTED_ROUNDS};
use crate::Part;
use nx_accel::huffenc::BlockEncoder;
use nx_accel::matcher::MatchEngine;
use nx_accel::{AccelConfig, Decompressor};
use nx_core::{Format, Nx};
use nx_deflate::crc32::crc32;
use nx_deflate::{gzip, Token};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Accel {
    nx: Nx,
    inputs: Inputs,
    matcher: MatchEngine,
    encoder: BlockEncoder,
    decomp: Decompressor,
    round: usize,
    /// Per-round seconds of the compress and decompress calls.
    comp_t: Vec<f64>,
    decomp_t: Vec<f64>,
    /// Simulated statistics of the counted rounds, in round order.
    pub sim: Vec<SimStats>,
    freq_ghz: f64,
    // Bytes and match counts over the counted rounds.
    in_bytes: u64,
    out_bytes: u64,
    kept: u64,
    discarded: u64,
    /// Per-round self time of each traced layer, in seconds.
    per_round: BTreeMap<&'static str, Vec<f64>>,
}

pub fn setup(inputs: Inputs) -> Accel {
    nx_core::profiles::default_registry();
    let nx = Nx::power9();
    let w = &inputs.warmup();
    if let Ok(c) = nx.compress(w, Format::Gzip) {
        let _ = nx.decompress(&c.bytes, Format::Gzip);
    }
    let cfg = AccelConfig::power9();
    Accel {
        nx,
        inputs,
        matcher: MatchEngine::new(cfg.clone()),
        encoder: BlockEncoder::new(cfg.clone()),
        decomp: Decompressor::new(cfg),
        round: 0,
        comp_t: Vec::new(),
        decomp_t: Vec::new(),
        sim: Vec::new(),
        freq_ghz: 0.0,
        in_bytes: 0,
        out_bytes: 0,
        kept: 0,
        discarded: 0,
        per_round: BTreeMap::new(),
    }
}

/// The simulated statistics of one buffer: compress `cycles`,
/// `ingest_cycles`, `bank_stall_cycles`, `huffman_tail_cycles`,
/// `discarded_matches`, then the decompress `cycles`.
pub type SimStats = [u64; 6];

fn trailer(gz: &[u8]) -> (u32, u32) {
    let t = &gz[gz.len() - 8..];
    (
        u32::from_le_bytes([t[0], t[1], t[2], t[3]]),
        u32::from_le_bytes([t[4], t[5], t[6], t[7]]),
    )
}

impl Part for Accel {
    fn step(&mut self, _budget_s: f64, o: &mut Outcome, tr: Option<&mut Tracer>) {
        let round = self.round;
        self.round += 1;
        let buf = &self.inputs.buffer(round);
        let t = Instant::now();
        let c = self.nx.compress(buf, Format::Gzip);
        let comp_s = t.elapsed().as_secs_f64();
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                o.op(false, || format!("accel compress: {e}"));
                return;
            }
        };
        let t = Instant::now();
        let d = self.nx.decompress(&c.bytes, Format::Gzip);
        let decomp_s = t.elapsed().as_secs_f64();

        // Verification, outside the timed calls: the member must
        // round-trip through the software inflate as well as the
        // modeled decompressor.
        let sw = gzip::decompress(&c.bytes);
        o.op(sw.as_deref() == Ok(buf.as_slice()), || {
            format!("accel round {round}: member does not round-trip")
        });
        let d = d.ok().filter(|d| d.bytes == *buf);
        o.op(d.is_some(), || {
            format!("accel round {round}: decompress differs")
        });
        if round == 0 {
            if let Err(e) = gzip_oracle(&c.bytes, buf) {
                o.fail(e);
            }
        }
        let r = &c.report;
        let stats = [
            r.cycles,
            r.ingest_cycles,
            r.bank_stall_cycles,
            r.huffman_tail_cycles,
            r.discarded_matches,
            d.as_ref().map_or(0, |d| d.report.cycles),
        ];
        if round < COUNTED_ROUNDS {
            self.sim.push(stats);
            self.in_bytes += buf.len() as u64;
            self.out_bytes += c.bytes.len() as u64;
            self.freq_ghz = r.freq_ghz;
        }
        if round == 0 {
            // The same input again, untimed: the counts must repeat.
            let again = self.nx.compress(buf, Format::Gzip).map(|c| {
                let r = c.report;
                [
                    r.cycles,
                    r.ingest_cycles,
                    r.bank_stall_cycles,
                    r.huffman_tail_cycles,
                    r.discarded_matches,
                ]
            });
            if again.as_ref().ok() != Some(&stats[..5].try_into().expect("five counts")) {
                o.fail(format!(
                    "accel: simulated statistics changed for the same input: {stats:?} then {again:?}"
                ));
            }
        }
        self.comp_t.push(comp_s);
        self.decomp_t.push(decomp_s);

        let Some(t) = tr else { return };
        let from = t.len();
        let composed = t.span("accel.compress", |t| {
            let m = t.span("accel.match", |_| self.matcher.tokenize(buf));
            let e = t.span("accel.huffenc", |_| self.encoder.encode(buf, &m.tokens));
            let bytes = t.span("framing.wrap", |_| {
                gzip::wrap_deflate(&e.stream, crc32(buf), buf.len() as u64)
            });
            (m, bytes)
        });
        o.op(composed.1 == c.bytes, || {
            "composed accel encode differs from the facade's".into()
        });
        if round < COUNTED_ROUNDS {
            self.kept += composed
                .0
                .tokens
                .iter()
                .filter(|t| matches!(t, Token::Match { .. }))
                .count() as u64;
            self.discarded += composed.0.discarded_matches;
        }
        let back = t.span("accel.decompress", |t| {
            let hlen = t
                .span("framing.unwrap", |_| gzip::parse_header(&c.bytes))
                .ok()?
                .1;
            let (out, _) = t
                .span("accel.decomp", |_| {
                    self.decomp.decompress(&c.bytes[hlen..c.bytes.len() - 8])
                })
                .ok()?;
            let ok = t.span("framing.verify", |_| {
                trailer(&c.bytes) == (crc32(&out), out.len() as u32)
            });
            ok.then_some(out)
        });
        o.op(back.as_deref() == Some(buf.as_slice()), || {
            "composed accel decompress differs".into()
        });
        let end = t.len();
        for (k, v) in t.self_times(from, end) {
            self.per_round.entry(k).or_default().push(v);
        }
        let overhead = t.root_time(from, end) / (comp_s + decomp_s) - 1.0;
        t.note_overhead("accel", overhead);
    }

    fn done(&self, used_s: f64, budget_s: f64) -> bool {
        self.round >= COUNTED_ROUNDS && used_s >= budget_s
    }

    fn finish(&mut self, o: &mut Outcome, tr: Option<&mut Tracer>) {
        let sim = &self.sim;
        let total: u64 = sim.iter().map(|s| s[0]).sum();
        if tr.is_none() {
            o.metric(
                "accel_compress_mb_per_s",
                mb_per_s(&self.comp_t, BUF_LEN),
                "MB/s",
            );
            o.metric(
                "accel_decompress_mb_per_s",
                mb_per_s(&self.decomp_t, BUF_LEN),
                "MB/s",
            );
            o.metric(
                "accel_ratio",
                self.in_bytes as f64 / self.out_bytes as f64,
                "ratio",
            );
            o.metric(
                "sim_compress_gb_per_s",
                self.in_bytes as f64 * self.freq_ghz / total as f64,
                "GB/s",
            );
            return;
        }
        let m = |k: &str| median(self.per_round.get(k).map_or(&[][..], Vec::as_slice));
        o.metric("accel.match_s", m("accel.match"), "s");
        o.metric("accel.huffenc_s", m("accel.huffenc"), "s");
        o.metric("accel.decomp_s", m("accel.decomp"), "s");
        o.metric("framing.wrap_s", m("framing.wrap"), "s");
        o.metric(
            "framing.unwrap_verify_s",
            m("framing.unwrap") + m("framing.verify"),
            "s",
        );
        let sum = |i: usize| sim.iter().map(|s| s[i]).sum::<u64>() as f64;
        o.metric("accel.cycles", sum(0), "cycles");
        o.metric("accel.ingest_cycles", sum(1), "cycles");
        o.metric("accel.bank_stall_cycles", sum(2), "cycles");
        o.metric("accel.huffman_tail_cycles", sum(3), "cycles");
        o.metric("accel.decomp_cycles", sum(5), "cycles");
        o.metric(
            "accel.discard_share",
            self.discarded as f64 / (self.discarded + self.kept).max(1) as f64,
            "share",
        );
    }
}
