//! The inflate decoder: a complete RFC 1951 state machine.
//!
//! [`inflate`] decodes a whole raw-DEFLATE stream; [`Inflater`] exposes the
//! block-by-block machinery (used by the containers and by tests that probe
//! individual malformed constructs). Every producer in this workspace —
//! software levels 0–9 and both accelerator modes — is validated against
//! this decoder, and the decoder itself is validated against hand-built
//! known-answer vectors.
//!
//! # The superloop
//!
//! Decoding runs on two cooperating paths:
//!
//! * a **fast loop** ([`Inflater::fast_loop`]) that runs while ≥ 16 input
//!   bytes and ≥ 274 bytes of output slack remain — the bit accumulator
//!   lives in a local, one wide refill serves up to two literals or a
//!   whole length+distance token, and match copies go 8 bytes at a time
//!   rounding up into the slack region. One pre-merged table lookup
//!   (see [`crate::huffman::decode`]) yields action, base value, extra-bit
//!   count and consumed bits together — the software analogue of the
//!   hardware's one-lookup-per-cycle decode pipeline;
//! * a **careful loop** that decodes one token at a time with precise
//!   bounds, limit, and EOF checks. The fast loop never commits a
//!   questionable token: on any anomaly (unassigned code, end-of-block,
//!   reserved symbol, too-far distance) it rewinds to the token start and
//!   hands over, so error semantics and boundary behavior are identical
//!   to a purely careful decode.
//!
//! Bytes produced by each path are counted process-wide; see
//! [`decode_path_counters`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bitio::BitReader;
use crate::encoder::{fixed_dist_lengths, fixed_litlen_lengths, CODELEN_ORDER};
use crate::huffman::decode::{m_consumed, m_extra, m_payload, DecodeTable, M_EOB, M_EXC, M_LIT};
use crate::{Error, Result};

/// Bytes produced by the fast inflate loop, process-wide.
static FAST_PATH_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes produced by the careful per-symbol loop, process-wide.
static CAREFUL_PATH_BYTES: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(fast, careful)` byte counters for the two inflate paths
/// over Huffman-coded blocks (stored blocks are not attributed to either).
/// Monotone; the fast-path hit rate is `fast / (fast + careful)`.
pub fn decode_path_counters() -> (u64, u64) {
    (
        FAST_PATH_BYTES.load(Ordering::Relaxed),
        CAREFUL_PATH_BYTES.load(Ordering::Relaxed),
    )
}

/// Decodes a complete raw DEFLATE stream.
///
/// # Errors
///
/// Any [`Error`] variant describing the malformation encountered.
///
/// ```
/// use nx_deflate::{deflate, inflate, CompressionLevel};
/// # fn main() -> Result<(), nx_deflate::Error> {
/// let out = deflate(b"data", CompressionLevel::new(1)?);
/// assert_eq!(inflate(&out)?, b"data");
/// # Ok(())
/// # }
/// ```
pub fn inflate(data: &[u8]) -> Result<Vec<u8>> {
    inflate_with_limit(data, usize::MAX)
}

/// Decodes a raw DEFLATE stream, failing with
/// [`Error::OutputLimitExceeded`] if the output would exceed `limit` bytes.
///
/// The limit makes the decoder safe against decompression bombs when the
/// caller knows an upper bound.
pub fn inflate_with_limit(data: &[u8], limit: usize) -> Result<Vec<u8>> {
    let mut inf = Inflater::new(data);
    inf.run(limit)?;
    Ok(inf.into_output())
}

/// Decodes a raw DEFLATE stream with the fast loop disabled — the
/// reference path the differential test battery compares against.
#[doc(hidden)]
pub fn inflate_careful(data: &[u8]) -> Result<Vec<u8>> {
    let mut inf = Inflater::new(data);
    inf.disable_fast_path();
    inf.run(usize::MAX)?;
    Ok(inf.into_output())
}

/// Decodes a raw DEFLATE stream into a caller-provided output buffer,
/// reusing `scratch` for decode tables and code-length staging — the
/// zero-allocation steady-state entry point.
///
/// `out` is cleared first; on success it holds the decoded bytes. On error
/// its contents are unspecified but its capacity (and the scratch tables)
/// remain available for reuse.
///
/// # Errors
///
/// As [`inflate`].
pub fn inflate_into(data: &[u8], scratch: &mut InflateScratch, out: &mut Vec<u8>) -> Result<()> {
    let mut inf = Inflater::with_reuse(data, std::mem::take(scratch), std::mem::take(out));
    let res = inf.run(usize::MAX);
    let (o, s) = inf.into_parts();
    *scratch = s;
    *out = o;
    res
}

/// Per-block structural record collected when tracing is enabled — the
/// input to `nx-accel`'s decompressor cycle model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTrace {
    /// Block type field (0 stored, 1 fixed, 2 dynamic).
    pub btype: u8,
    /// Bits consumed by the block header (incl. BFINAL/BTYPE and, for
    /// dynamic blocks, the whole code-length stream).
    pub header_bits: u64,
    /// Decoded tokens (empty for stored blocks).
    pub tokens: Vec<crate::lz77::Token>,
    /// Uncompressed bytes this block produced.
    pub output_bytes: u64,
    /// Total bits of the block including the header.
    pub total_bits: u64,
}

/// Decodes a raw DEFLATE stream produced against a preset dictionary
/// (see [`crate::encoder::deflate_with_dict`]).
///
/// # Errors
///
/// As [`inflate`].
pub fn inflate_with_dict(data: &[u8], dict: &[u8]) -> Result<Vec<u8>> {
    let mut inf = Inflater::new(data);
    inf.prime_window(dict);
    inf.run(usize::MAX)?;
    Ok(inf.into_output())
}

/// Decodes a dictionary-primed raw DEFLATE stream into a caller-provided
/// buffer, reusing `scratch` — the preset-dictionary twin of
/// [`inflate_into`]. `out` is cleared first.
///
/// # Errors
///
/// As [`inflate`].
pub fn inflate_with_dict_into(
    data: &[u8],
    dict: &[u8],
    scratch: &mut InflateScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut inf = Inflater::with_reuse(data, std::mem::take(scratch), std::mem::take(out));
    inf.prime_window(dict);
    let res = inf.run(usize::MAX);
    let (o, s) = inf.into_parts();
    *scratch = s;
    *out = o;
    res
}

/// Decodes a raw DEFLATE stream while recording the per-block structure —
/// the hook the accelerator's decompressor cycle model is driven from.
///
/// # Errors
///
/// As [`inflate`].
pub fn inflate_traced(data: &[u8]) -> Result<(Vec<u8>, Vec<BlockTrace>)> {
    let mut inf = Inflater::new(data);
    inf.enable_tracing();
    inf.run(usize::MAX)?;
    let trace = inf.take_trace();
    Ok((inf.into_output(), trace))
}

/// The fixed-Huffman decode tables never change (RFC 1951 §3.2.6);
/// build them once per process instead of per block.
fn fixed_decode_tables() -> &'static (DecodeTable, DecodeTable) {
    static TABLES: std::sync::OnceLock<(DecodeTable, DecodeTable)> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        match (
            DecodeTable::new_litlen(&fixed_litlen_lengths()),
            DecodeTable::new_dist(&fixed_dist_lengths()),
        ) {
            (Ok(litlen), Ok(dist)) => (litlen, dist),
            // The inputs are the RFC 1951 §3.2.6 constants — a complete,
            // valid code by definition.
            _ => unreachable!("RFC 1951 fixed code lengths form a valid code"),
        }
    })
}

/// Reusable inflate working state: merged decode tables, the code-length
/// table, and the code-length staging vector. Holding one of these across
/// requests makes dynamic-block table construction allocation-free in
/// steady state (tables rebuild in place; see
/// [`DecodeTable::rebuild_litlen`]).
#[derive(Debug, Default)]
pub struct InflateScratch {
    pub(crate) litlen: DecodeTable,
    pub(crate) dist: DecodeTable,
    pub(crate) cl: DecodeTable,
    pub(crate) lengths: Vec<u8>,
}

impl InflateScratch {
    /// Fresh, empty scratch (first use populates the tables).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Output capacity heuristic for a fresh decode: DEFLATE payloads in the
/// wild typically expand 2–4×; cap the upfront guess so a tiny hostile
/// input cannot force a large reservation.
fn initial_capacity(input_len: usize) -> usize {
    input_len.saturating_mul(4).min(1 << 20)
}

/// Incremental inflate engine over a borrowed input slice.
#[derive(Debug)]
pub struct Inflater<'a> {
    reader: BitReader<'a>,
    out: Vec<u8>,
    /// Bytes of preset dictionary at the front of `out` (never returned).
    primed: usize,
    finished: bool,
    trace: Option<Vec<BlockTrace>>,
    scratch: InflateScratch,
    fast_enabled: bool,
}

impl<'a> Inflater<'a> {
    /// Creates an engine at the start of `data`. The output buffer is
    /// seeded with a ratio-based capacity guess; callers that know the
    /// decoded size (e.g. from a gzip ISIZE trailer) should refine it via
    /// [`reserve_output`](Self::reserve_output).
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            reader: BitReader::new(data),
            out: Vec::with_capacity(initial_capacity(data.len())),
            primed: 0,
            finished: false,
            trace: None,
            scratch: InflateScratch::default(),
            fast_enabled: true,
        }
    }

    /// Creates an engine positioned at an arbitrary **bit** offset into
    /// `data` — the random-access entry point used by the seek index: a
    /// deflate block boundary recorded earlier need not fall on a byte.
    ///
    /// The input is sliced at the containing byte and the residual bits
    /// are skipped, so stored-block byte alignment (which RFC 1951
    /// defines relative to the stream start) is preserved. Callers that
    /// enter mid-stream usually also need [`prime_window`]
    /// (`Self::prime_window`) with the 32 KB window recorded alongside
    /// the offset.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if `bit_offset` lies beyond `data`.
    pub fn new_at(data: &'a [u8], bit_offset: u64) -> Result<Self> {
        let byte = usize::try_from(bit_offset / 8).map_err(|_| Error::UnexpectedEof)?;
        if byte >= data.len() {
            return Err(Error::UnexpectedEof);
        }
        let mut inf = Self::new(&data[byte..]);
        let rem = (bit_offset % 8) as u32;
        if rem > 0 {
            inf.reader.read_bits(rem)?;
        }
        Ok(inf)
    }

    /// Creates an engine that reuses a previous decode's scratch tables
    /// and output buffer (cleared, capacity kept) — see [`inflate_into`].
    pub fn with_reuse(data: &'a [u8], scratch: InflateScratch, mut out: Vec<u8>) -> Self {
        out.clear();
        Self {
            reader: BitReader::new(data),
            out,
            primed: 0,
            finished: false,
            trace: None,
            scratch,
            fast_enabled: true,
        }
    }

    /// Consumes the engine, returning the decoded bytes (excluding any
    /// primed dictionary) together with the reusable scratch state.
    pub fn into_parts(mut self) -> (Vec<u8>, InflateScratch) {
        self.out.drain(..self.primed);
        (self.out, self.scratch)
    }

    /// Grows the output buffer's capacity toward `hint` expected decoded
    /// bytes. A hint is advisory: wrong values cost at most a reallocation
    /// or some slack, never correctness, and hostile hints are capped.
    pub fn reserve_output(&mut self, hint: usize) {
        // Never reserve more than the theoretical DEFLATE expansion of the
        // remaining input (~1032×) or a hard 256 MiB roof.
        let input_len = self.reader.input().len();
        let cap = hint.min(input_len.saturating_mul(1032)).min(1 << 28);
        self.out.reserve(cap);
    }

    /// Disables the fast loop, forcing every token through the careful
    /// per-symbol path — the reference mode for differential testing.
    pub fn disable_fast_path(&mut self) {
        self.fast_enabled = false;
    }

    /// Primes the window with a preset dictionary (its last 32 KB), the
    /// inflate side of zlib's `inflateSetDictionary`. Must be called
    /// before any block is decoded.
    ///
    /// # Panics
    ///
    /// Panics if output has already been produced.
    pub fn prime_window(&mut self, dict: &[u8]) {
        assert!(self.out.is_empty(), "prime_window after decoding started");
        let d = &dict[dict.len().saturating_sub(crate::WINDOW_SIZE)..];
        self.out.extend_from_slice(d);
        self.primed = d.len();
    }

    /// Consumes `n` bits without interpreting them — positions the engine
    /// mid-stream (the streaming decoder re-enters at a block boundary it
    /// recorded earlier).
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if fewer than `n` bits are available.
    pub fn skip_bits(&mut self, n: u64) -> Result<()> {
        let mut left = n;
        while left > 0 {
            let take = left.min(32) as u32;
            self.reader.read_bits(take)?;
            left -= u64::from(take);
        }
        Ok(())
    }

    /// Enables structural tracing: each decoded block is recorded as a
    /// [`BlockTrace`], retrievable with [`take_trace`](Self::take_trace).
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Returns the collected block traces (empty if tracing was never
    /// enabled).
    pub fn take_trace(&mut self) -> Vec<BlockTrace> {
        self.trace.take().unwrap_or_default()
    }

    /// Runs the state machine to stream end.
    ///
    /// # Errors
    ///
    /// See [`inflate_with_limit`].
    pub fn run(&mut self, limit: usize) -> Result<()> {
        while !self.finished {
            self.decode_block(limit)?;
        }
        Ok(())
    }

    /// Decodes exactly one block (header + body).
    ///
    /// # Errors
    ///
    /// See [`inflate_with_limit`].
    pub fn decode_block(&mut self, limit: usize) -> Result<()> {
        let start_bits = self.reader.bits_consumed();
        let out_start = self.out.len();
        let bfinal = self.reader.read_bits(1)? == 1;
        let btype = self.reader.read_bits(2)? as u8;
        let collect = self.trace.is_some();
        let mut tokens: Vec<crate::lz77::Token> = Vec::new();
        let header_end_bits;
        match btype {
            0b00 => {
                header_end_bits = self.stored_block(limit)?;
            }
            0b01 => {
                header_end_bits = self.reader.bits_consumed();
                let (litlen, dist) = fixed_decode_tables();
                self.huffman_block(litlen, dist, limit, collect.then_some(&mut tokens))?;
            }
            0b10 => {
                // The scratch tables are moved out for the duration of the
                // block so the table borrows don't pin `self`, and moved
                // back unconditionally to keep their capacity for reuse.
                let mut scratch = std::mem::take(&mut self.scratch);
                let built = self.read_dynamic_tables_into(&mut scratch);
                header_end_bits = self.reader.bits_consumed();
                let res = built.and_then(|()| {
                    self.huffman_block(
                        &scratch.litlen,
                        &scratch.dist,
                        limit,
                        collect.then_some(&mut tokens),
                    )
                });
                self.scratch = scratch;
                res?;
            }
            _ => return Err(Error::ReservedBlockType),
        }
        if let Some(trace) = &mut self.trace {
            trace.push(BlockTrace {
                btype,
                header_bits: header_end_bits - start_bits,
                tokens,
                output_bytes: (self.out.len() - out_start) as u64,
                total_bits: self.reader.bits_consumed() - start_bits,
            });
        }
        if bfinal {
            self.finished = true;
        }
        Ok(())
    }

    /// Whether the final block has been decoded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Bits consumed from the input so far.
    pub fn bit_position(&self) -> u64 {
        self.reader.bits_consumed()
    }

    /// Bytes consumed from the input, rounded up to whole bytes.
    pub fn byte_position(&self) -> usize {
        (self.bit_position().div_ceil(8)) as usize
    }

    /// Output decoded so far (excluding any primed dictionary).
    pub fn output(&self) -> &[u8] {
        &self.out[self.primed..]
    }

    /// Consumes the engine, returning the decoded bytes (excluding any
    /// primed dictionary).
    pub fn into_output(mut self) -> Vec<u8> {
        self.out.drain(..self.primed);
        self.out
    }

    fn push(&mut self, b: u8, limit: usize) -> Result<()> {
        if self.out.len() - self.primed >= limit {
            return Err(Error::OutputLimitExceeded);
        }
        self.out.push(b);
        Ok(())
    }

    /// Decodes a stored block body, returning the absolute bit position at
    /// which the header (through NLEN) ended.
    fn stored_block(&mut self, limit: usize) -> Result<u64> {
        self.reader.align_to_byte();
        let mut hdr = [0u8; 4];
        self.reader.read_bytes(&mut hdr)?;
        let header_end = self.reader.bits_consumed();
        let len = u16::from_le_bytes([hdr[0], hdr[1]]);
        let nlen = u16::from_le_bytes([hdr[2], hdr[3]]);
        if len != !nlen {
            return Err(Error::StoredLengthMismatch);
        }
        if self.out.len() - self.primed + usize::from(len) > limit {
            return Err(Error::OutputLimitExceeded);
        }
        let start = self.out.len();
        self.out.resize(start + usize::from(len), 0);
        self.reader.read_bytes(&mut self.out[start..])?;
        Ok(header_end)
    }

    /// Parses a dynamic-block header (HLIT/HDIST/HCLEN, the code-length
    /// code, and the run-length-encoded literal/distance lengths) and
    /// rebuilds `scratch.litlen` / `scratch.dist` in place.
    fn read_dynamic_tables_into(&mut self, scratch: &mut InflateScratch) -> Result<()> {
        let hlit = self.reader.read_bits(5)? as usize + 257;
        let hdist = self.reader.read_bits(5)? as usize + 1;
        let hclen = self.reader.read_bits(4)? as usize + 4;
        if hlit > 286 || hdist > 30 {
            return Err(Error::InvalidCodeLengths);
        }

        let mut cl_lengths = [0u8; 19];
        for &sym in CODELEN_ORDER.iter().take(hclen) {
            cl_lengths[sym] = self.reader.read_bits(3)? as u8;
        }
        scratch.cl.rebuild_plain(&cl_lengths)?;

        let total = hlit + hdist;
        scratch.lengths.clear();
        scratch.lengths.resize(total, 0);
        let (cl_table, lengths) = (&scratch.cl, &mut scratch.lengths);
        let mut i = 0usize;
        while i < total {
            let sym = cl_table.decode(&mut self.reader)?;
            match sym {
                0..=15 => {
                    lengths[i] = sym as u8;
                    i += 1;
                }
                16 => {
                    if i == 0 {
                        return Err(Error::RepeatWithoutPrevious);
                    }
                    let prev = lengths[i - 1];
                    let n = 3 + self.reader.read_bits(2)? as usize;
                    if i + n > total {
                        return Err(Error::TooManyCodeLengths);
                    }
                    for _ in 0..n {
                        lengths[i] = prev;
                        i += 1;
                    }
                }
                17 => {
                    let n = 3 + self.reader.read_bits(3)? as usize;
                    if i + n > total {
                        return Err(Error::TooManyCodeLengths);
                    }
                    i += n; // already zero
                }
                18 => {
                    let n = 11 + self.reader.read_bits(7)? as usize;
                    if i + n > total {
                        return Err(Error::TooManyCodeLengths);
                    }
                    i += n;
                }
                _ => return Err(Error::InvalidSymbol),
            }
        }

        // The literal/length alphabet must contain the end-of-block code.
        if scratch.lengths[256] == 0 {
            return Err(Error::InvalidCodeLengths);
        }
        scratch.litlen.rebuild_litlen(&scratch.lengths[..hlit])?;
        scratch.dist.rebuild_dist(&scratch.lengths[hlit..])?;
        Ok(())
    }

    fn huffman_block(
        &mut self,
        litlen: &DecodeTable,
        dist: &DecodeTable,
        limit: usize,
        mut tokens: Option<&mut Vec<crate::lz77::Token>>,
    ) -> Result<()> {
        // The fast loop skips per-token bookkeeping, so tracing runs
        // entirely on the careful path.
        let use_fast = tokens.is_none() && self.fast_enabled && litlen.is_merged();
        let mut careful_bytes = 0u64;
        let res = loop {
            if use_fast {
                self.fast_loop(litlen, dist, limit);
            }
            match self.careful_token(litlen, dist, limit, &mut tokens, &mut careful_bytes) {
                Ok(true) => break Ok(()),
                Ok(false) => {}
                Err(e) => break Err(e),
            }
        };
        if careful_bytes > 0 {
            CAREFUL_PATH_BYTES.fetch_add(careful_bytes, Ordering::Relaxed);
        }
        res
    }

    /// Decodes one token on the careful path. Returns `Ok(true)` on
    /// end-of-block.
    fn careful_token(
        &mut self,
        litlen: &DecodeTable,
        dist: &DecodeTable,
        limit: usize,
        tokens: &mut Option<&mut Vec<crate::lz77::Token>>,
        careful_bytes: &mut u64,
    ) -> Result<bool> {
        let e = litlen.decode_entry(&mut self.reader)?;
        if e & M_LIT != 0 {
            let b = m_payload(e) as u8;
            if let Some(ts) = tokens.as_deref_mut() {
                ts.push(crate::lz77::Token::Literal(b));
            }
            self.push(b, limit)?;
            *careful_bytes += 1;
            return Ok(false);
        }
        if e & M_EOB != 0 {
            return Ok(true);
        }
        if e & M_EXC != 0 {
            // Reserved literal/length symbols 286/287.
            return Err(Error::InvalidLengthOrDistance);
        }
        let len = m_payload(e) as usize + self.reader.read_bits(m_extra(e))? as usize;
        let de = dist.decode_entry(&mut self.reader)?;
        if de & M_EXC != 0 {
            // Reserved distance symbols 30/31.
            return Err(Error::InvalidLengthOrDistance);
        }
        let distance = m_payload(de) as usize + self.reader.read_bits(m_extra(de))? as usize;
        if distance > self.out.len() {
            return Err(Error::DistanceTooFar);
        }
        if self.out.len() - self.primed + len > limit {
            return Err(Error::OutputLimitExceeded);
        }
        if let Some(ts) = tokens.as_deref_mut() {
            ts.push(crate::lz77::Token::Match {
                len: len as u16,
                dist: distance as u16,
            });
        }
        let start = self.out.len() - distance;
        if distance >= len {
            self.out.extend_from_within(start..start + len);
        } else {
            // Overlapping copy (RLE semantics): out[start..] is periodic
            // with period `distance`, so appending any prefix of it
            // continues the pattern. The available source doubles each
            // pass.
            let mut remaining = len;
            while remaining > 0 {
                let take = remaining.min(self.out.len() - start);
                self.out.extend_from_within(start..start + take);
                remaining -= take;
            }
        }
        *careful_bytes += len as u64;
        Ok(false)
    }

    /// The fast inner loop. Decodes tokens while safety margins hold and
    /// hands any anomaly back to the careful loop with the reader rewound
    /// to the start of the offending token. Infallible by construction:
    /// it only commits tokens the careful path would also accept.
    ///
    /// Safety margins (see DESIGN.md for the full argument):
    /// * **input**: runs while `pos + 16 <= data.len()`, so both the
    ///   iteration-start refill and the mid-token refill read 8 in-bounds
    ///   bytes and always leave ≥ 56 valid accumulator bits — enough for
    ///   two literals (≤ 30 bits) or a literal + length code + extra
    ///   (≤ 35 bits) before the mid refill, and a distance code + extra
    ///   (≤ 28 bits) after it;
    /// * **output**: runs while `wpos + 274 <= fence`, where 274 ≥ one
    ///   literal (1) + the longest match (258) rounded up to the next
    ///   8-byte copy boundary (264), so wide copies may overshoot into
    ///   slack that `truncate` trims afterwards;
    /// * **limit**: the slack fence never extends past `primed + limit`,
    ///   so the fast loop can never overrun the caller's output limit —
    ///   near the limit it defers to the careful loop's exact check.
    fn fast_loop(&mut self, litlen: &DecodeTable, dist: &DecodeTable, limit: usize) {
        const SLACK: usize = 274;
        const CHUNK: usize = 64 * 1024;
        let data = self.reader.input();
        let (mut acc, mut nbits, mut pos) = self.reader.fast_state();
        let mut wpos = self.out.len();
        let start_wpos = wpos;
        let limit_bound = self.primed.saturating_add(limit);
        'outer: while pos + 16 <= data.len() {
            // Open a slack region: resize (not reserve) so the wide copies
            // below can index freely; trimmed back to `wpos` on exit.
            let target = wpos.saturating_add(CHUNK).min(limit_bound);
            if target < wpos.saturating_add(SLACK) {
                break;
            }
            if self.out.len() < target {
                self.out.resize(target, 0);
            }
            let out = self.out.as_mut_slice();
            let fence = out.len();
            while pos + 16 <= data.len() && wpos + SLACK <= fence {
                if nbits < 56 {
                    let mut w = [0u8; 8];
                    w.copy_from_slice(&data[pos..pos + 8]);
                    acc |= u64::from_le_bytes(w) << nbits;
                    let absorbed = (63 - nbits) >> 3;
                    pos += absorbed as usize;
                    nbits += absorbed * 8;
                }
                let mut e = litlen.lookup(acc);
                if e == 0 {
                    break 'outer;
                }
                if e & M_LIT != 0 {
                    let c = m_consumed(e);
                    acc >>= c;
                    nbits -= c;
                    out[wpos] = m_payload(e) as u8;
                    wpos += 1;
                    // Second literal from the same refill: ≥ 41 bits left.
                    e = litlen.lookup(acc);
                    if e & M_LIT != 0 {
                        let c2 = m_consumed(e);
                        acc >>= c2;
                        nbits -= c2;
                        out[wpos] = m_payload(e) as u8;
                        wpos += 1;
                        // Third literal: ≥ 26 bits left still covers a
                        // 15-bit code plus the next root peek.
                        e = litlen.lookup(acc);
                        if e & M_LIT != 0 {
                            let c3 = m_consumed(e);
                            acc >>= c3;
                            nbits -= c3;
                            out[wpos] = m_payload(e) as u8;
                            wpos += 1;
                            continue;
                        }
                    }
                    if e == 0 {
                        continue;
                    }
                }
                if e & M_EXC != 0 {
                    // End-of-block or reserved symbol: let the careful
                    // loop re-decode it (nothing consumed for `e`).
                    break 'outer;
                }
                // Length/distance token. Snapshot so a bail re-decodes the
                // whole token carefully with identical error semantics.
                let snap = (acc, nbits, pos, wpos);
                let c = m_consumed(e);
                acc >>= c;
                nbits -= c;
                let lextra = m_extra(e);
                let len = m_payload(e) as usize + (acc & ((1u64 << lextra) - 1)) as usize;
                acc >>= lextra;
                nbits -= lextra;
                if nbits < 32 {
                    // Mid-token refill; in-bounds because `pos` has moved
                    // at most 7 bytes since the `pos + 16` guard.
                    let mut w = [0u8; 8];
                    w.copy_from_slice(&data[pos..pos + 8]);
                    acc |= u64::from_le_bytes(w) << nbits;
                    let absorbed = (63 - nbits) >> 3;
                    pos += absorbed as usize;
                    nbits += absorbed * 8;
                }
                let de = dist.lookup(acc);
                if de == 0 || de & M_EXC != 0 {
                    (acc, nbits, pos, wpos) = snap;
                    break 'outer;
                }
                let dc = m_consumed(de);
                acc >>= dc;
                nbits -= dc;
                let dextra = m_extra(de);
                let distance = m_payload(de) as usize + (acc & ((1u64 << dextra) - 1)) as usize;
                acc >>= dextra;
                nbits -= dextra;
                if distance > wpos {
                    (acc, nbits, pos, wpos) = snap;
                    break 'outer;
                }
                let src = wpos - distance;
                if distance == 1 {
                    let b = out[src];
                    out[wpos..wpos + len].fill(b);
                } else if distance >= 8 {
                    // 8-byte wide copy rounding up into the slack; each
                    // read is ≥ 8 bytes behind the write cursor, so
                    // already-written data is never read mid-chunk.
                    let mut s = src;
                    let mut d = wpos;
                    let end = wpos + len;
                    while d < end {
                        let mut tmp = [0u8; 8];
                        tmp.copy_from_slice(&out[s..s + 8]);
                        out[d..d + 8].copy_from_slice(&tmp);
                        s += 8;
                        d += 8;
                    }
                } else {
                    // Short-period overlap (2..=7): byte-by-byte keeps the
                    // pattern exact.
                    let mut i = wpos;
                    let end = wpos + len;
                    while i < end {
                        out[i] = out[i - distance];
                        i += 1;
                    }
                }
                wpos += len;
            }
        }
        self.out.truncate(wpos);
        self.reader.set_fast_state(acc, nbits, pos);
        if wpos > start_wpos {
            FAST_PATH_BYTES.fetch_add((wpos - start_wpos) as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::encoder::{encode_stored_block, CompressionLevel};

    #[test]
    fn decodes_empty_stored_final_block() {
        let mut w = BitWriter::new();
        encode_stored_block(&mut w, b"", true);
        assert_eq!(inflate(&w.finish()).unwrap(), b"");
    }

    #[test]
    fn decodes_hand_built_fixed_block() {
        // Fixed-code block containing "abc": literal codes for 'a','b','c'
        // are 8-bit values 0x30 + byte - 0 for 0..=143 → 'a'(97) = 0x30+97
        // = 0x91 (canonical), then EOB (7 bits of 0).
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b01, 2); // fixed
        for &b in b"abc" {
            let canon = 0x30u16 + u16::from(b);
            let rev = crate::huffman::reverse_bits(canon, 8);
            w.write_bits(u64::from(rev), 8);
        }
        w.write_bits(0, 7); // EOB code 256 = 0000000
        assert_eq!(inflate(&w.finish()).unwrap(), b"abc");
    }

    #[test]
    fn rejects_reserved_block_type() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b11, 2);
        assert_eq!(inflate(&w.finish()), Err(Error::ReservedBlockType));
    }

    #[test]
    fn rejects_stored_len_mismatch() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        w.write_bytes(&[0x02, 0x00, 0x00, 0x00]); // NLEN not complement
        w.write_bytes(&[0xAA, 0xBB]);
        assert_eq!(inflate(&w.finish()), Err(Error::StoredLengthMismatch));
    }

    #[test]
    fn rejects_distance_beyond_output() {
        // Fixed block: match len 3 dist 1 as very first token.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        // Length code 257 (canonical 7-bit 0000001), no extra.
        w.write_bits(u64::from(crate::huffman::reverse_bits(0b0000001, 7)), 7);
        // Distance code 0 (5 bits, canonical 00000), no extra.
        w.write_bits(0, 5);
        w.write_bits(0, 7); // EOB
        assert_eq!(inflate(&w.finish()), Err(Error::DistanceTooFar));
    }

    #[test]
    fn rejects_truncated_stream() {
        let full = crate::deflate(
            b"some reasonable payload here",
            CompressionLevel::new(6).unwrap(),
        );
        for cut in 1..full.len().min(12) {
            let r = inflate(&full[..full.len() - cut]);
            assert!(r.is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn output_limit_enforced() {
        let data = vec![b'x'; 100_000];
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        assert_eq!(
            inflate_with_limit(&comp, 50_000),
            Err(Error::OutputLimitExceeded)
        );
        assert_eq!(inflate_with_limit(&comp, 100_000).unwrap(), data);
    }

    #[test]
    fn rejects_repeat_without_previous() {
        // Dynamic header whose first code-length symbol is 16 (repeat).
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0, 5); // HLIT=257
        w.write_bits(0, 5); // HDIST=1
        w.write_bits(15, 4); // HCLEN=19
                             // Give symbol 16 length 1, symbol 17 length 1, everything else 0.
                             // CODELEN_ORDER starts 16,17,18,...
        w.write_bits(1, 3); // len(16)=1
        w.write_bits(1, 3); // len(17)=1
        for _ in 2..19 {
            w.write_bits(0, 3);
        }
        // First symbol: 16 → canonical code 0 (1 bit).
        w.write_bits(0, 1);
        let r = inflate(&w.finish());
        assert_eq!(r, Err(Error::RepeatWithoutPrevious));
    }

    #[test]
    fn rejects_code_length_overflow() {
        // Zero-run that overruns HLIT+HDIST.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0, 5); // HLIT=257
        w.write_bits(0, 5); // HDIST=1 → total 258
        w.write_bits(15, 4); // HCLEN=19
        w.write_bits(0, 3); // len(16)=0
        w.write_bits(0, 3); // len(17)=0
        w.write_bits(1, 3); // len(18)=1
        w.write_bits(1, 3); // len(0)=1
        for _ in 4..19 {
            w.write_bits(0, 3);
        }
        // Canonical codes for {0, 18} at length 1: symbol 0 → 0, 18 → 1.
        // Emit 18 with max run 138, three times: 414 > 258.
        for _ in 0..3 {
            w.write_bits(1, 1); // symbol 18
            w.write_bits(127, 7); // run 138
        }
        assert_eq!(inflate(&w.finish()), Err(Error::TooManyCodeLengths));
    }

    #[test]
    fn rejects_missing_end_of_block_code() {
        // Dynamic tables where symbol 256 has length 0.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0, 5); // HLIT=257
        w.write_bits(0, 5); // HDIST=1
        w.write_bits(15, 4); // HCLEN=19
                             // len(18)=1, len(0)=... we need: lengths[0..257] mostly zero with
                             // symbol 0 and 1 getting codes, 256 zero.
                             // Order: 16,17,18,0,8,7,9,6,10,5,11,4,12,3,13,2,14,1,15
        let mut lens = [0u8; 19];
        lens[18] = 1; // zero runs
        lens[1] = 1; // code length 1
        for &s in CODELEN_ORDER.iter() {
            w.write_bits(u64::from(lens[s]), 3);
        }
        // cl code: symbols {1,18} with len1 → canonical: 1→0, 18→1.
        // lengths: sym0=1 (emit cl sym 1 = code 0), sym1=1, then 18 runs of
        // zero to fill 255 more entries (two runs 138+117), then dist 0.
        w.write_bits(0, 1); // len[0]=1
        w.write_bits(0, 1); // len[1]=1
        w.write_bits(1, 1); // 18
        w.write_bits(127, 7); // 138 zeros
        w.write_bits(1, 1); // 18
        w.write_bits(117 - 11, 7); // 117 zeros → total 257
        w.write_bits(1, 1); // 18 → dist area... wait, need exactly 1 more
        w.write_bits(0, 7); // 11 zeros would overflow
        let r = inflate(&w.finish());
        assert!(r.is_err());
    }

    #[test]
    fn multiblock_stream_decodes() {
        let mut w = BitWriter::new();
        encode_stored_block(&mut w, b"first|", false);
        encode_stored_block(&mut w, b"second", true);
        assert_eq!(inflate(&w.finish()).unwrap(), b"first|second");
    }

    #[test]
    fn tracing_records_block_structure() {
        let data: Vec<u8> = b"trace me trace me trace me ".repeat(20);
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        let (out, trace) = inflate_traced(&comp).unwrap();
        assert_eq!(out, data);
        assert!(!trace.is_empty());
        let total_out: u64 = trace.iter().map(|b| b.output_bytes).sum();
        assert_eq!(total_out, data.len() as u64);
        for b in &trace {
            assert!(b.header_bits >= 3);
            assert!(b.total_bits >= b.header_bits);
            if b.btype != 0 {
                let span: usize = b.tokens.iter().map(|t| t.input_len()).sum();
                assert_eq!(span as u64, b.output_bytes);
            }
        }
        // Total bits accounted matches the stream length (±7 padding bits).
        let bits: u64 = trace.iter().map(|b| b.total_bits).sum();
        assert!(comp.len() as u64 * 8 - bits < 8);
    }

    #[test]
    fn tracing_handles_stored_blocks() {
        let mut w = BitWriter::new();
        encode_stored_block(&mut w, b"plain", true);
        let (out, trace) = inflate_traced(&w.finish()).unwrap();
        assert_eq!(out, b"plain");
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].btype, 0);
        assert_eq!(trace[0].output_bytes, 5);
        assert!(trace[0].tokens.is_empty());
        // Header: 3 bits + pad to byte + 32 bits LEN/NLEN = 40 bits.
        assert_eq!(trace[0].header_bits, 40);
    }

    #[test]
    fn inflater_reports_positions() {
        let comp = crate::deflate(b"position test data", CompressionLevel::new(1).unwrap());
        let mut inf = Inflater::new(&comp);
        inf.run(usize::MAX).unwrap();
        assert!(inf.is_finished());
        assert_eq!(inf.byte_position(), comp.len());
        assert_eq!(inf.output(), b"position test data");
    }

    /// A payload that exercises literals, long matches, and short-period
    /// overlaps at every compression level.
    fn mixed_payload() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(
                format!("entry {i} value={}|", i.wrapping_mul(2654435761)).as_bytes(),
            );
        }
        data.extend(std::iter::repeat_n(b'R', 5000)); // dist-1 runs
        data.extend((0..3000).map(|i| (i % 251) as u8)); // near-random tail
        data
    }

    #[test]
    fn fast_and_careful_paths_agree() {
        let data = mixed_payload();
        for level in [0u32, 1, 4, 6, 9] {
            let comp = crate::deflate(&data, CompressionLevel::new(level).unwrap());
            let fast = inflate(&comp).unwrap();
            let careful = inflate_careful(&comp).unwrap();
            assert_eq!(fast, careful, "level {level}");
            assert_eq!(fast, data, "level {level}");
        }
    }

    #[test]
    fn fast_path_counters_advance() {
        let (f0, _) = decode_path_counters();
        let data = mixed_payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        assert_eq!(inflate(&comp).unwrap(), data);
        let (f1, _) = decode_path_counters();
        assert!(f1 > f0, "fast loop produced no bytes on a large stream");
    }

    #[test]
    fn inflate_into_reuses_buffers() {
        let data = mixed_payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        let mut scratch = InflateScratch::new();
        let mut out = Vec::new();
        inflate_into(&comp, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        let cap = out.capacity();
        // Second decode of the same stream must not grow the buffer.
        inflate_into(&comp, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn inflate_into_reports_errors_and_stays_reusable() {
        let mut scratch = InflateScratch::new();
        let mut out = Vec::new();
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b11, 2); // reserved type
        assert_eq!(
            inflate_into(&w.finish(), &mut scratch, &mut out),
            Err(Error::ReservedBlockType)
        );
        let data = mixed_payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        inflate_into(&comp, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn output_capacity_is_seeded() {
        let inf = Inflater::new(&[0u8; 1000]);
        assert!(inf.out.capacity() >= 4000);
        let mut inf = Inflater::new(&[0u8; 8]);
        inf.reserve_output(usize::MAX); // hostile hint is capped
        assert!(inf.out.capacity() <= 8 * 1032);
    }

    #[test]
    fn fast_path_respects_dictionary_window() {
        let dict = b"0123456789abcdefghijklmnopqrstuvwxyz".repeat(40);
        let data = dict.repeat(3);
        let comp =
            crate::encoder::deflate_with_dict(&data, CompressionLevel::new(6).unwrap(), &dict);
        assert_eq!(inflate_with_dict(&comp, &dict).unwrap(), data);
    }
}
