//! Parallel and seekable decompression — the decode-side companion to
//! [`crate::parallel`].
//!
//! A DEFLATE stream is serial by construction: every Huffman block may
//! reference the previous 32 KB of *output*, and block boundaries are not
//! byte-aligned. The NX unit accepts this — it decodes each stream
//! serially at hardware speed and finds its parallelism across requests
//! and accelerators, never inside one stream. This module follows the
//! same split, with two decode routes:
//!
//! 1. **Member fan-out** — a multi-member gzip stream (`gzip(1)` and
//!    pigz concatenate freely) is cut at member headers found by a
//!    magic-byte scan, and whole members decode member-per-worker. The
//!    chain is validated by each member's recorded length; any break
//!    (a false candidate that is never reached does not count, a failed
//!    or killed member does) falls back to the serial member walk.
//! 2. **Serial core** — everything else (one member, zlib, raw DEFLATE,
//!    a single worker, malformed containers) goes straight to
//!    [`ParallelInflater::decompress_serial`].
//!
//! Output and errors are therefore byte-identical to the serial decode
//! on every input.
//!
//! The module also builds a serializable [`SeekIndex`] — a list of
//! (bit offset, output offset, ≤32 KB window snapshot) checkpoints — so
//! [`ParallelInflater::decompress_at`] can random-access any slice of the
//! decompressed stream without decoding the prefix.

use crate::fault::FaultInjector;
use crate::framing::{self, Format};
use crate::{software, Error, Result};
use nx_deflate::crc32::crc32;
use nx_deflate::{gzip, Error as DeflateError, Inflater, WINDOW_SIZE};
use nx_telemetry::{MetricSource, MetricValue, Stage, TelemetrySink, TraceContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Modeled decode streaming rate for shard spans: 8 compressed bytes per
/// cycle, matching the encode-side shard model. Decode span timelines are
/// deterministic functions of member index and size, never wall clock.
const DECODE_BYTES_PER_CYCLE: u64 = 8;

/// Output bytes between seek-index checkpoints (before rounding to block
/// boundaries).
const DEFAULT_CHECKPOINT_EVERY: usize = 1024 * 1024;

/// Upper bound on gzip member candidates considered for member-parallel
/// decode; beyond this the O(candidates) parallel bookkeeping stops paying
/// and the serial member walk wins anyway.
const MAX_MEMBER_CANDIDATES: usize = 4096;

/// Magic bytes that open a serialized [`SeekIndex`].
pub const SEEK_INDEX_MAGIC: [u8; 4] = *b"NXSI";

/// Serialization format version.
const SEEK_INDEX_VERSION: u8 = 1;

/// Tuning knobs for [`ParallelInflater`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelInflateOptions {
    /// Worker threads for gzip member fan-out. `1` decodes every stream
    /// serially.
    pub workers: usize,
    /// Decompressed bytes between seek-index checkpoints (rounded up to
    /// the enclosing block boundary; at least one window).
    pub checkpoint_every: usize,
}

impl Default for ParallelInflateOptions {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// Counters for the parallel-decode path, exported through the telemetry
/// registry as source `nx-decode-parallel`.
#[derive(Debug, Default)]
pub struct InflateParStats {
    requests: AtomicU64,
    members_parallel: AtomicU64,
    serial_fallbacks: AtomicU64,
    seek_index_hits: AtomicU64,
    bytes_out: AtomicU64,
}

macro_rules! counter_getters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        $( $(#[$doc])* pub fn $name(&self) -> u64 { self.$name.load(Ordering::Relaxed) } )+
    };
}

impl InflateParStats {
    counter_getters! {
        /// Decompression requests routed through the parallel path.
        requests,
        /// gzip members decoded member-per-worker.
        members_parallel,
        /// Member fan-outs whose chain broke (a failed or killed member
        /// worker, or a cut tail), degrading the request to the serial
        /// member walk.
        serial_fallbacks,
        /// `decompress_at` calls served from a seek index.
        seek_index_hits,
        /// Total decompressed bytes produced.
        bytes_out,
    }

    /// Always 0: speculative single-stream chunks have had no producer
    /// since single streams moved to the serial core. Kept so existing
    /// benchmark readers still compile; a later benchmark change drops it.
    pub fn chunks_decoded(&self) -> u64 {
        0
    }

    /// Always 0: no speculative attempts exist to miss since single
    /// streams moved to the serial core. Kept so existing benchmark
    /// readers still compile; a later benchmark change drops it.
    pub fn speculation_misses(&self) -> u64 {
        0
    }

    /// Always 0: the marker patch pass has had no producer since single
    /// streams moved to the serial core. Kept so existing benchmark
    /// readers still compile; a later benchmark change drops it.
    pub fn marker_patch_bytes(&self) -> u64 {
        0
    }
}

impl MetricSource for InflateParStats {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let counters: [(&str, u64); 5] = [
            ("nx_decode_parallel_requests_total", self.requests()),
            ("nx_decode_parallel_members_total", self.members_parallel()),
            (
                "nx_decode_parallel_serial_fallbacks_total",
                self.serial_fallbacks(),
            ),
            (
                "nx_decode_parallel_seek_index_hits_total",
                self.seek_index_hits(),
            ),
            ("nx_decode_parallel_bytes_out_total", self.bytes_out()),
        ];
        for (name, v) in counters {
            out.push((name.into(), MetricValue::Counter(v)));
        }
    }
}

/// One random-access entry point into a compressed stream: resume decoding
/// at `bit_offset` with `window` as dictionary, knowing `out_offset` bytes
/// precede it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeekCheckpoint {
    /// Absolute bit offset (from the start of the *container*) of a block
    /// boundary — or of a member's first block, in which case `window` is
    /// empty.
    pub bit_offset: u64,
    /// Decompressed bytes preceding this checkpoint.
    pub out_offset: u64,
    /// The trailing ≤32 KB of output at this point; empty at member
    /// starts, where DEFLATE history resets.
    pub window: Vec<u8>,
}

/// A serializable random-access index over a compressed stream.
///
/// Built by [`ParallelInflater::build_index`] (or
/// [`ParallelInflater::decompress_indexed`]); consumed by
/// [`ParallelInflater::decompress_at`]. The wire format is
/// `"NXSI" u8:version u8:format u64:total_out u32:count` followed by
/// `count` records of `u64:bit_offset u64:out_offset u32:wlen` + window
/// bytes, all little-endian.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeekIndex {
    format: Format,
    total_out: u64,
    checkpoints: Vec<SeekCheckpoint>,
}

impl SeekIndex {
    /// Container format the index was built for.
    pub fn format(&self) -> Format {
        self.format
    }

    /// Total decompressed size of the indexed stream.
    pub fn total_out(&self) -> u64 {
        self.total_out
    }

    /// The checkpoints, ordered by `out_offset`.
    pub fn checkpoints(&self) -> &[SeekCheckpoint] {
        &self.checkpoints
    }

    /// Serializes the index (see the type docs for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self
            .checkpoints
            .iter()
            .map(|c| 8 + 8 + 4 + c.window.len())
            .sum();
        let mut out = Vec::with_capacity(4 + 1 + 1 + 8 + 4 + body);
        out.extend_from_slice(&SEEK_INDEX_MAGIC);
        out.push(SEEK_INDEX_VERSION);
        out.push(match self.format {
            Format::RawDeflate => 0,
            Format::Gzip => 1,
            Format::Zlib => 2,
        });
        out.extend_from_slice(&self.total_out.to_le_bytes());
        out.extend_from_slice(&(self.checkpoints.len() as u32).to_le_bytes());
        for c in &self.checkpoints {
            out.extend_from_slice(&c.bit_offset.to_le_bytes());
            out.extend_from_slice(&c.out_offset.to_le_bytes());
            out.extend_from_slice(&(c.window.len() as u32).to_le_bytes());
            out.extend_from_slice(&c.window);
        }
        out
    }

    /// Deserializes an index produced by [`SeekIndex::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSeekIndex`] on bad magic, version, truncation,
    /// oversized windows or non-monotonic offsets.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        fn take<'a>(data: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
            let s = data.get(*pos..*pos + n).ok_or(Error::InvalidSeekIndex)?;
            *pos += n;
            Ok(s)
        }
        fn le_u32(s: &[u8]) -> u32 {
            let mut b = [0u8; 4];
            b.copy_from_slice(s);
            u32::from_le_bytes(b)
        }
        fn le_u64(s: &[u8]) -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        }
        let mut pos = 0usize;
        if take(data, &mut pos, 4)? != SEEK_INDEX_MAGIC {
            return Err(Error::InvalidSeekIndex);
        }
        if take(data, &mut pos, 1)?[0] != SEEK_INDEX_VERSION {
            return Err(Error::InvalidSeekIndex);
        }
        let format = match take(data, &mut pos, 1)?[0] {
            0 => Format::RawDeflate,
            1 => Format::Gzip,
            2 => Format::Zlib,
            _ => return Err(Error::InvalidSeekIndex),
        };
        let total_out = le_u64(take(data, &mut pos, 8)?);
        let count = le_u32(take(data, &mut pos, 4)?) as usize;
        let mut checkpoints = Vec::new();
        let mut prev_out = 0u64;
        for i in 0..count {
            let bit_offset = le_u64(take(data, &mut pos, 8)?);
            let out_offset = le_u64(take(data, &mut pos, 8)?);
            let wlen = le_u32(take(data, &mut pos, 4)?) as usize;
            if wlen > WINDOW_SIZE || out_offset > total_out {
                return Err(Error::InvalidSeekIndex);
            }
            if i > 0 && out_offset < prev_out {
                return Err(Error::InvalidSeekIndex);
            }
            prev_out = out_offset;
            let window = take(data, &mut pos, wlen)?.to_vec();
            checkpoints.push(SeekCheckpoint {
                bit_offset,
                out_offset,
                window,
            });
        }
        if pos != data.len() {
            return Err(Error::InvalidSeekIndex);
        }
        Ok(Self {
            format,
            total_out,
            checkpoints,
        })
    }
}

/// The parallel + seekable decoder. Cheap to construct: workers are scoped
/// threads spawned per request, borrowing the input slice.
#[derive(Debug)]
pub struct ParallelInflater {
    opts: ParallelInflateOptions,
    stats: Arc<InflateParStats>,
    faults: Option<Arc<FaultInjector>>,
    /// Span sink for traced decodes (disabled by default — the untraced
    /// paths never touch it).
    telemetry: TelemetrySink,
}

impl Default for ParallelInflater {
    fn default() -> Self {
        Self::new(ParallelInflateOptions::default())
    }
}

impl ParallelInflater {
    /// Creates a decoder with fresh stats.
    pub fn new(opts: ParallelInflateOptions) -> Self {
        Self::with_parts(
            opts,
            Arc::new(InflateParStats::default()),
            None,
            TelemetrySink::disabled(),
        )
    }

    /// Creates a decoder sharing stats / faults / sink with a facade.
    pub(crate) fn with_parts(
        mut opts: ParallelInflateOptions,
        stats: Arc<InflateParStats>,
        faults: Option<Arc<FaultInjector>>,
        telemetry: TelemetrySink,
    ) -> Self {
        opts.workers = opts.workers.max(1);
        Self {
            opts,
            stats,
            faults,
            telemetry,
        }
    }

    /// The decode counters (shared with the owning facade, if any).
    pub fn stats(&self) -> &Arc<InflateParStats> {
        &self.stats
    }

    /// Decompresses `data`: multi-member gzip with more than one worker
    /// decodes member-per-worker, everything else on the serial core.
    ///
    /// Output is byte-identical to [`ParallelInflater::decompress_serial`]
    /// on every input — a broken member chain falls back to the serial
    /// path, including for malformed streams, so errors match too.
    ///
    /// # Errors
    ///
    /// Exactly those of the serial reference decode.
    pub fn decompress(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let out = self.decompress_inner(data, format, None)?;
        self.stats
            .bytes_out
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// As [`decompress`](Self::decompress), inside the caller's trace:
    /// each gzip member a worker decodes (or the whole stream, on the
    /// serial route) lands as a `shard` span on the request's modeled
    /// timeline under `ctx.parent_span`, and a broken member chain is
    /// recorded as a `fallback` span. Identical bytes either way.
    ///
    /// # Errors
    ///
    /// As [`decompress`](Self::decompress).
    pub fn decompress_in_trace(
        &self,
        data: &[u8],
        format: Format,
        ctx: &TraceContext,
    ) -> Result<Vec<u8>> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let out = self.decompress_inner(data, format, Some(ctx))?;
        self.stats
            .bytes_out
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Emits one `shard` span per decode unit on the modeled timeline.
    /// `sizes` are the compressed bytes each unit consumed; unit `i` runs
    /// on worker `i % workers` (the fan-out's round-robin assignment),
    /// starting when that worker's previous unit ends.
    fn emit_decode_shards(&self, ctx: Option<&TraceContext>, sizes: &[usize]) {
        let Some(ctx) = ctx else { return };
        if !ctx.sampled || !self.telemetry.is_enabled() {
            return;
        }
        let mut lane_at = vec![ctx.at_cycles; self.opts.workers.min(sizes.len()).max(1)];
        let lanes = lane_at.len();
        for (i, &sz) in sizes.iter().enumerate() {
            let lane = i % lanes;
            let dur = (sz as u64 / DECODE_BYTES_PER_CYCLE).max(1);
            self.telemetry.emit(
                ctx.trace_id,
                ctx.child_seq + i as u32,
                ctx.parent_span,
                Stage::Shard,
                lane as u32,
                lane_at[lane],
                dur,
                sz as u64,
                0,
            );
            lane_at[lane] += dur;
        }
    }

    /// Emits a `fallback` span covering the serial re-decode. Its detail
    /// is always 1, "member chain broke"; code 2 ("speculation miss") is
    /// retired and never emitted.
    fn emit_decode_fallback(&self, ctx: Option<&TraceContext>, bytes: u64) {
        let Some(ctx) = ctx else { return };
        if !ctx.sampled || !self.telemetry.is_enabled() {
            return;
        }
        let dur = (bytes / DECODE_BYTES_PER_CYCLE).max(1);
        self.telemetry.emit(
            ctx.trace_id,
            ctx.child_seq,
            ctx.parent_span,
            Stage::Fallback,
            0,
            ctx.at_cycles,
            dur,
            bytes,
            1,
        );
    }

    fn decompress_inner(
        &self,
        data: &[u8],
        format: Format,
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<u8>> {
        let request = self.faults.as_ref().map_or(0, |f| f.begin_request());
        if format == Format::Gzip && self.opts.workers > 1 {
            let cands = member_candidates(data);
            if cands.len() > 1 && cands.len() <= MAX_MEMBER_CANDIDATES {
                if let Some(out) = self.members_parallel(data, &cands, request) {
                    // Member slice sizes from consecutive candidate
                    // offsets (the last member runs to end of input).
                    let sizes: Vec<usize> = cands
                        .iter()
                        .zip(cands.iter().skip(1).chain(std::iter::once(&data.len())))
                        .map(|(a, b)| b - a)
                        .collect();
                    self.emit_decode_shards(ctx, &sizes);
                    return Ok(out);
                }
                self.emit_decode_fallback(ctx, data.len() as u64);
                return self.serial_fallback(data, format);
            }
        }
        // One stream (or one worker): the serial core, as one shard.
        self.emit_decode_shards(ctx, &[data.len()]);
        self.decompress_serial(data, format)
    }

    /// The serial reference decode: a member walk for gzip (multi-member
    /// streams are legal — `gzip(1)` concatenates freely), the plain
    /// unwrap-inflate-verify path otherwise.
    ///
    /// # Errors
    ///
    /// Any container or DEFLATE error in the stream.
    pub fn decompress_serial(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        match format {
            Format::Gzip => {
                let mut out = Vec::new();
                let mut any = false;
                for member in gzip::members(data) {
                    let (payload, _header) = member?;
                    if out.is_empty() {
                        out = payload;
                    } else {
                        out.extend_from_slice(&payload);
                    }
                    any = true;
                }
                if !any {
                    return Err(DeflateError::UnexpectedEof.into());
                }
                Ok(out)
            }
            Format::Zlib | Format::RawDeflate => software::decompress(data, format),
        }
    }

    /// Counts a degradation to serial and runs the reference decode.
    fn serial_fallback(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        self.stats.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
        if let Some(inj) = &self.faults {
            let s = inj.stats();
            s.bump(&s.serial_fallbacks);
        }
        self.decompress_serial(data, format)
    }

    // ---- multi-member fast path -------------------------------------

    /// Decodes gzip members member-per-worker, chain-validating candidate
    /// offsets against each decoded member's recorded length. Returns
    /// `None` on any break in the chain (the caller falls back).
    fn members_parallel(&self, data: &[u8], cands: &[usize], request: u64) -> Option<Vec<u8>> {
        let n = cands.len();
        let nthreads = self.opts.workers.min(n).max(1);
        // (member index, decoded payload + consumed length) per worker.
        type MemberSlot = (usize, Option<(Vec<u8>, usize)>);
        let collected: Vec<Vec<MemberSlot>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nthreads)
                .map(|w| {
                    let inj = self.faults.clone();
                    s.spawn(move || {
                        let mut outs = Vec::new();
                        let mut i = w;
                        while i < n {
                            let r = if inj
                                .as_ref()
                                .is_some_and(|j| j.worker_fault(request, i as u64))
                            {
                                None
                            } else {
                                gzip::decompress_with_header(&data[cands[i]..])
                                    .ok()
                                    .map(|(payload, _h, used)| (payload, used))
                            };
                            outs.push((i, r));
                            i += nthreads;
                        }
                        outs
                    })
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
        let mut slots: Vec<Option<(Vec<u8>, usize)>> = Vec::new();
        slots.resize_with(n, || None);
        for group in collected {
            for (i, r) in group {
                slots[i] = r;
            }
        }
        // Chain-validate from offset 0: each member must start at a decoded
        // candidate and hand off exactly at its recorded end. False
        // candidates (magic bytes inside compressed data) are simply never
        // reached by the chain.
        let mut out: Vec<u8> = Vec::new();
        let mut pos = 0usize;
        let mut chained = 0u64;
        while pos < data.len() {
            let idx = cands.binary_search(&pos).ok()?;
            let (payload, used) = slots[idx].take()?;
            if used == 0 {
                return None;
            }
            if out.is_empty() {
                out = payload;
            } else {
                out.extend_from_slice(&payload);
            }
            pos += used;
            chained += 1;
        }
        self.stats
            .members_parallel
            .fetch_add(chained, Ordering::Relaxed);
        Some(out)
    }

    // ---- seek index -------------------------------------------------

    /// Decompresses `data` serially while recording a [`SeekIndex`]
    /// checkpoint at the first block boundary past every
    /// `checkpoint_every` output bytes (and at every member start).
    ///
    /// # Errors
    ///
    /// Any container or DEFLATE error in the stream.
    pub fn decompress_indexed(&self, data: &[u8], format: Format) -> Result<(Vec<u8>, SeekIndex)> {
        let every = self.opts.checkpoint_every.max(WINDOW_SIZE);
        let mut checkpoints: Vec<SeekCheckpoint> = Vec::new();
        let mut out: Vec<u8> = Vec::new();
        match format {
            Format::Gzip => {
                let mut pos = 0usize;
                loop {
                    let member = data.get(pos..).ok_or(DeflateError::UnexpectedEof)?;
                    let (_header, pstart) = gzip::parse_header(member)?;
                    let base_bits = ((pos + pstart) as u64) * 8;
                    let member_base = out.len();
                    let used = walk_stream(
                        &member[pstart..],
                        base_bits,
                        every,
                        &mut checkpoints,
                        &mut out,
                    )?;
                    let trailer_at = pos + pstart + used;
                    pos = verify_member_trailer(data, trailer_at, &out[member_base..])?;
                    if pos >= data.len() {
                        break;
                    }
                }
            }
            Format::Zlib => {
                let un = framing::unwrap(data, format)?;
                walk_stream(un.deflate_stream, 16, every, &mut checkpoints, &mut out)?;
                un.verify(&out)?;
            }
            Format::RawDeflate => {
                walk_stream(data, 0, every, &mut checkpoints, &mut out)?;
            }
        }
        let index = SeekIndex {
            format,
            total_out: out.len() as u64,
            checkpoints,
        };
        Ok((out, index))
    }

    /// Builds a [`SeekIndex`] for `data`, discarding the decoded output.
    ///
    /// # Errors
    ///
    /// See [`ParallelInflater::decompress_indexed`].
    pub fn build_index(&self, data: &[u8], format: Format) -> Result<SeekIndex> {
        self.decompress_indexed(data, format).map(|(_, idx)| idx)
    }

    /// Random-accesses `[offset, offset + len)` of the decompressed stream
    /// using `index`, decoding only from the nearest preceding checkpoint —
    /// never the prefix. `len` is clamped at end of stream.
    ///
    /// # Errors
    ///
    /// [`Error::SeekOutOfRange`] if `offset` lies past the end,
    /// [`Error::InvalidSeekIndex`] if the index is inconsistent with
    /// `data`, plus any DEFLATE error while decoding the spanned blocks.
    pub fn decompress_at(
        &self,
        data: &[u8],
        index: &SeekIndex,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let first_ok = index.checkpoints.first().is_some_and(|c| c.out_offset == 0);
        if !first_ok {
            return Err(Error::InvalidSeekIndex);
        }
        if offset > index.total_out {
            return Err(Error::SeekOutOfRange);
        }
        let want = (len as u64).min(index.total_out - offset) as usize;
        let mut result = Vec::with_capacity(want);
        if want == 0 {
            return Ok(result);
        }
        self.stats.seek_index_hits.fetch_add(1, Ordering::Relaxed);
        let end = offset + want as u64;
        let mut cursor = offset;
        // Greatest checkpoint at or before the cursor.
        let mut ci = match index
            .checkpoints
            .binary_search_by(|c| c.out_offset.cmp(&cursor))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        while cursor < end {
            let cp = &index.checkpoints[ci];
            if cp.out_offset > cursor {
                return Err(Error::InvalidSeekIndex);
            }
            let mut inf = Inflater::new_at(data, cp.bit_offset)?;
            if !cp.window.is_empty() {
                inf.prime_window(&cp.window);
            }
            inf.reserve_output((end - cp.out_offset) as usize);
            while !inf.is_finished() && cp.out_offset + (inf.output().len() as u64) < end {
                inf.decode_block(usize::MAX)?;
            }
            let produced = inf.output();
            let avail_end = cp.out_offset + produced.len() as u64;
            if avail_end > cursor {
                let lo = (cursor - cp.out_offset) as usize;
                let hi = produced.len().min((end - cp.out_offset) as usize);
                result.extend_from_slice(&produced[lo..hi]);
                cursor = cp.out_offset + hi as u64;
            }
            if cursor >= end {
                break;
            }
            // The stream finished before covering the range: the next
            // member resumes at `cursor` and must have its own checkpoint.
            match index.checkpoints[ci + 1..]
                .iter()
                .position(|c| c.out_offset == cursor)
            {
                Some(step) => ci += 1 + step,
                None => return Err(Error::InvalidSeekIndex),
            }
        }
        Ok(result)
    }
}

/// Walks one DEFLATE stream block-by-block, appending its output to `out`
/// and pushing checkpoints (member start + every `every` output bytes).
/// Returns the compressed bytes consumed.
fn walk_stream(
    payload: &[u8],
    base_bits: u64,
    every: usize,
    checkpoints: &mut Vec<SeekCheckpoint>,
    out: &mut Vec<u8>,
) -> Result<usize> {
    checkpoints.push(SeekCheckpoint {
        bit_offset: base_bits,
        out_offset: out.len() as u64,
        window: Vec::new(),
    });
    let member_base = out.len() as u64;
    let mut inf = Inflater::new(payload);
    let mut next_cp = every as u64;
    while !inf.is_finished() {
        inf.decode_block(usize::MAX)?;
        if !inf.is_finished() && inf.output().len() as u64 >= next_cp {
            let produced = inf.output();
            let wlo = produced.len().saturating_sub(WINDOW_SIZE);
            checkpoints.push(SeekCheckpoint {
                bit_offset: base_bits + inf.bit_position(),
                out_offset: member_base + produced.len() as u64,
                window: produced[wlo..].to_vec(),
            });
            next_cp = produced.len() as u64 + every as u64;
        }
    }
    let used = inf.byte_position();
    let member_out = inf.into_output();
    if out.is_empty() {
        *out = member_out;
    } else {
        out.extend_from_slice(&member_out);
    }
    Ok(used)
}

/// Validates the 8-byte gzip trailer at `trailer_at` against the decoded
/// bytes of the member it closes, returning the offset just past it.
fn verify_member_trailer(data: &[u8], trailer_at: usize, member_out: &[u8]) -> Result<usize> {
    let tb = data
        .get(trailer_at..trailer_at + 8)
        .ok_or(DeflateError::UnexpectedEof)?;
    let stored_crc = u32::from_le_bytes([tb[0], tb[1], tb[2], tb[3]]);
    let stored_len = u32::from_le_bytes([tb[4], tb[5], tb[6], tb[7]]);
    if stored_crc != crc32(member_out) || stored_len != (member_out.len() & 0xFFFF_FFFF) as u32 {
        return Err(DeflateError::GzipChecksumMismatch.into());
    }
    Ok(trailer_at + 8)
}

/// Scans `data` for plausible gzip member starts: magic + DEFLATE method +
/// clear reserved FLG bits. Always cheap (one linear pass); false
/// positives are weeded out by chain validation.
fn member_candidates(data: &[u8]) -> Vec<usize> {
    let mut cands = Vec::new();
    let mut i = 0usize;
    while i + 3 < data.len() {
        if data[i] == 0x1F && data[i + 1] == 0x8B && data[i + 2] == 8 && data[i + 3] & 0xE0 == 0 {
            cands.push(i);
        }
        i += 1;
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use nx_deflate::CompressionLevel;

    fn opts(workers: usize) -> ParallelInflateOptions {
        ParallelInflateOptions {
            workers,
            checkpoint_every: 64 * 1024,
        }
    }

    fn corpus(n: usize) -> Vec<u8> {
        // Mixed text/binary: compresses a few-to-one, so streams span
        // many DEFLATE blocks and the seek index has interior boundaries.
        nx_corpus::mixed(41, n)
    }

    #[test]
    fn member_candidates_finds_all_members() {
        let mut stream = Vec::new();
        let mut starts = Vec::new();
        for i in 0..4 {
            starts.push(stream.len());
            stream.extend(gzip::compress(
                format!("member number {i}").as_bytes(),
                CompressionLevel::default(),
            ));
        }
        let cands = member_candidates(&stream);
        for s in starts {
            assert!(cands.contains(&s));
        }
    }

    #[test]
    fn multi_member_parallel_matches_members_walk() {
        let mut stream = Vec::new();
        let mut expect = Vec::new();
        // Eight small members, then one 1 MiB member: a large single
        // stream that one worker decodes whole on the serial core.
        let big = corpus(1 << 20);
        for i in 0..9 {
            let payload = if i < 8 {
                corpus(10_000 + i * 777)
            } else {
                big.clone()
            };
            expect.extend_from_slice(&payload);
            stream.extend(gzip::compress(&payload, CompressionLevel::default()));
        }
        let par = ParallelInflater::new(opts(4));
        let out = par.decompress(&stream, Format::Gzip).unwrap();
        assert_eq!(out, expect);
        assert_eq!(par.stats().members_parallel(), 9);
        assert_eq!(par.stats().serial_fallbacks(), 0);
    }

    #[test]
    fn single_member_matches_serial() {
        // One large member takes the serial route at any worker count:
        // nothing fans out and nothing falls back.
        let data = corpus(1 << 20);
        let gz = gzip::compress(&data, CompressionLevel::default());
        let par = ParallelInflater::new(opts(4));
        let out = par.decompress(&gz, Format::Gzip).unwrap();
        assert_eq!(out, data);
        assert_eq!(out, par.decompress_serial(&gz, Format::Gzip).unwrap());
        assert_eq!(par.stats().members_parallel(), 0);
        assert_eq!(par.stats().serial_fallbacks(), 0);
    }

    #[test]
    fn corrupt_stream_errors_like_serial() {
        let data = corpus(256 * 1024);
        let mut gz = gzip::compress(&data, CompressionLevel::default());
        let mid = gz.len() / 2;
        gz[mid] ^= 0xFF;
        let par = ParallelInflater::new(opts(4));
        let serial = par.decompress_serial(&gz, Format::Gzip);
        let parallel = par.decompress(&gz, Format::Gzip);
        assert_eq!(serial.is_err(), parallel.is_err());
        if let (Ok(a), Ok(b)) = (&serial, &parallel) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seek_index_roundtrips_serialization() {
        let data = corpus(300_000);
        let gz = gzip::compress(&data, CompressionLevel::default());
        let par = ParallelInflater::new(opts(2));
        let idx = par.build_index(&gz, Format::Gzip).unwrap();
        assert!(idx.checkpoints().len() > 1, "expected interior checkpoints");
        let bytes = idx.to_bytes();
        let back = SeekIndex::from_bytes(&bytes).unwrap();
        assert_eq!(idx, back);
        assert!(SeekIndex::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SeekIndex::from_bytes(&bad).is_err());
    }

    #[test]
    fn decompress_at_returns_correct_slices() {
        let data = corpus(400_000);
        let gz = gzip::compress(&data, CompressionLevel::default());
        let par = ParallelInflater::new(opts(2));
        let idx = par.build_index(&gz, Format::Gzip).unwrap();
        for (off, len) in [
            (0u64, 100usize),
            (65_536, 4096),
            (399_990, 100),
            (123_457, 70_000),
        ] {
            let got = par.decompress_at(&gz, &idx, off, len).unwrap();
            let lo = off as usize;
            let hi = (lo + len).min(data.len());
            assert_eq!(got, &data[lo..hi], "offset {off} len {len}");
        }
        assert!(matches!(
            par.decompress_at(&gz, &idx, data.len() as u64 + 1, 1),
            Err(Error::SeekOutOfRange)
        ));
        assert!(par.stats().seek_index_hits() >= 4);
    }

    #[test]
    fn decompress_at_spans_member_boundaries() {
        let a = corpus(100_000);
        let b = corpus(120_000);
        let mut stream = gzip::compress(&a, CompressionLevel::default());
        stream.extend(gzip::compress(&b, CompressionLevel::default()));
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        let par = ParallelInflater::new(opts(2));
        let (out, idx) = par.decompress_indexed(&stream, Format::Gzip).unwrap();
        assert_eq!(out, expect);
        let got = par.decompress_at(&stream, &idx, 99_000, 3000).unwrap();
        assert_eq!(got, &expect[99_000..102_000]);
    }

    #[test]
    fn zlib_and_raw_paths_work() {
        let data = corpus(600_000);
        let par = ParallelInflater::new(opts(4));
        let zl = nx_deflate::zlib::compress(&data, CompressionLevel::default());
        assert_eq!(par.decompress(&zl, Format::Zlib).unwrap(), data);
        let raw = nx_deflate::deflate(&data, CompressionLevel::default());
        assert_eq!(par.decompress(&raw, Format::RawDeflate).unwrap(), data);
        let (out, idx) = par.decompress_indexed(&zl, Format::Zlib).unwrap();
        assert_eq!(out, data);
        let got = par.decompress_at(&zl, &idx, 70_000, 1000).unwrap();
        assert_eq!(got, &data[70_000..71_000]);
    }
}
