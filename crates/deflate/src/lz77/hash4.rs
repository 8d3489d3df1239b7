//! Flat-array hash4 match finder — the compression hot path.
//!
//! A libdeflate-style design: four-byte prefixes hash through one
//! multiplicative mix into a `head` array of absolute positions, and a
//! circular `prev` array of *backward u16 deltas* links same-hash
//! positions into chains. Compared to zlib's 3-byte/`u32`-link chains:
//!
//! * a 4-byte hash key quarters the collision rate, so a chain walk of
//!   the same budget inspects far fewer false candidates;
//! * `prev` stores `u16` deltas (a window is 32 768 ≤ `u16::MAX`), halving
//!   the table to 64 KB so it stays cache-resident;
//! * the chain walk is an inline loop with a last-byte quick reject and
//!   the u64-XOR extension ([`match_length`], shared with the batch
//!   engine and the accelerator's match-engine model), not an iterator;
//! * an **insert-skip heuristic** detects incompressible runs (long
//!   stretches with no match) and emits literals in growing steps without
//!   searching or indexing, so random data stops paying for a dictionary
//!   it cannot use.
//!
//! Three tokenizers sit on top, selected by the numeric level exactly as
//! zlib selects `deflate_fast`/`deflate_slow`:
//!
//! * [`tokenize_fastest_into`] (level 1, [`crate::Level::Fastest`]) —
//!   head-only greedy: one probe per position, no chain walk at all;
//! * [`tokenize_greedy4_into`] (levels 2–3) — greedy with a bounded walk;
//! * [`tokenize_lazy4_into`] (levels 4–9) — zlib's one-token lazy
//!   deferral state machine (`deflate_slow`) over the hash4 chains.
//!
//! All three append per-search chain-walk lengths and lazy deferrals to
//! local counters that the caller flushes into the process-wide encode
//! telemetry (see [`crate::encoder::encode_counters`]).

use super::{MatcherConfig, Token};
use crate::{MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

/// log2 of the head table size. 16 bits × 4-byte entries = 256 KB; the
/// multiplicative hash uses the top bits of the 32-bit product.
const HASH4_BITS: u32 = 16;

const HASH4_SIZE: usize = 1 << HASH4_BITS;

/// log2 of the 3-byte head table. A 4-byte hash cannot see pure 3-byte
/// matches at all — and delta-encoded columnar data is made of them —
/// so a second head-only table (no chain) remembers the newest position
/// of each 3-byte prefix, probed only when the hash4 walk comes up
/// empty. Mirrors libdeflate's `hc_matchfinder` hash3 table.
const HASH3_BITS: u32 = 15;

const HASH3_SIZE: usize = 1 << HASH3_BITS;

const WMASK: usize = WINDOW_SIZE - 1;

/// Matches at `MIN_MATCH` (3 bytes) only pay off when the distance is
/// small — three literals are usually cheaper than a far reference.
/// Mirrors zlib's `TOO_FAR`. Module-visible: the batch engine's hash3
/// side-probe applies the same bound.
pub(super) const TOO_FAR: usize = 4096;

/// Number of log2 buckets in the chain-walk length histogram
/// (`0, 1, 2–3, 4–7, …, ≥64`).
pub const CHAIN_HIST_BUCKETS: usize = 8;

/// The multiplicative hash over a 4-byte little-endian value — exposed
/// to the batch engine, which loads its lane values with wide reads and
/// hashes them itself.
#[inline]
pub(super) fn hash4_value(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH4_BITS)) as usize
}

/// Hash of the four bytes at `data[pos]` (requires `pos + 4 <= len`).
#[inline]
fn hash4(data: &[u8], pos: usize) -> usize {
    let b = &data[pos..pos + 4];
    hash4_value(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The 3-byte multiplicative hash over a 4-byte little-endian value
/// (the fourth byte is masked off) — exposed to the batch engine, which
/// already holds each lane's `u32` from its wide loads.
#[inline]
pub(super) fn hash3_value(v: u32) -> usize {
    ((v & 0x00FF_FFFF).wrapping_mul(0x9E37_79B1) >> (32 - HASH3_BITS)) as usize
}

/// Hash of the three bytes at `data[pos]` (requires `pos + 3 <= len`).
#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let b = &data[pos..pos + 3];
    hash3_value(u32::from_le_bytes([b[0], b[1], b[2], 0]))
}

/// Eight little-endian bytes at `data[pos..]` as a `u64`.
#[inline]
fn read8(data: &[u8], pos: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&data[pos..pos + 8]);
    u64::from_le_bytes(w)
}

/// Returns the length of the common prefix of `data[a..]` and `data[b..]`,
/// capped at [`MAX_MATCH`] and at the end of input.
///
/// The u64-chunked compare + `trailing_zeros` extension is shared by the
/// hash4 tokenizers here, the batch engine ([`super::batch`]) and the
/// accelerator's match-engine model.
#[inline]
pub fn match_length(data: &[u8], a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    let max = MAX_MATCH.min(data.len() - b);
    let mut n = 0;
    // Compare 8 bytes at a time; the XOR's trailing zero count locates
    // the first differing byte without a per-byte loop.
    while n + 8 <= max {
        let diff = read8(data, a + n) ^ read8(data, b + n);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// Buckets in the speculative cover histogram: a window of
/// [`super::cover::WINDOW_LANES`] = 8 positions selects 0..=8 matches.
pub const SPEC_COVER_BUCKETS: usize = 9;

/// Per-tokenize search statistics, accumulated locally (plain integers on
/// the hot path) and flushed once into the process-wide atomics.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchStats {
    /// Chain-walk length histogram: bucket `i` counts searches that
    /// examined `2^(i-1) < n ≤ 2^i …` candidates (log2 buckets, bucket 0
    /// = exactly 0 or 1 candidates examined).
    pub chain_hist: [u64; CHAIN_HIST_BUCKETS],
    /// Lazy-matcher deferrals (a pending match displaced by a longer one).
    pub lazy_deferrals: u64,
    /// 8-position windows resolved by the speculative batch engine.
    pub spec_windows: u64,
    /// Batch-engine candidates that survived probe + extension, before
    /// cover resolution.
    pub spec_candidates: u64,
    /// Window positions covered by selected matches.
    pub spec_covered: u64,
    /// Candidates cover resolution dropped (anchor consumed by a longer
    /// selection, or truncated below the keep threshold).
    pub spec_discarded: u64,
    /// Histogram of matches selected per window (index = pick count).
    pub spec_cover_hist: [u64; SPEC_COVER_BUCKETS],
}

impl SearchStats {
    #[inline]
    pub(super) fn record_walk(&mut self, steps: usize) {
        let bucket = (usize::BITS - steps.leading_zeros()) as usize;
        self.chain_hist[bucket.min(CHAIN_HIST_BUCKETS - 1)] += 1;
    }
}

/// Flat-array hash4 dictionary: `head[h]` holds `position + 1` of the
/// newest occurrence of hash `h` (0 = empty), and `prev[pos & WMASK]`
/// holds the backward delta to the previous position with the same hash
/// (0 = end of chain).
///
/// # Stale-entry safety
///
/// [`reset`](Self::reset) clears only the head tables (`head` +
/// `head3`) and leaves the 64 KB `prev` ring untouched. Every walk starts at a `head` slot, which
/// after a reset only ever holds positions inserted since, and
/// [`insert`](Self::insert) writes `prev[pos & WMASK]` *before*
/// publishing `pos` in `head` — so by induction every slot a walk can
/// reach was written in the current run. Within a run, a slot overwritten
/// by a position one window later is detected by the distance bound
/// (deltas always move strictly backward, so walks terminate).
#[derive(Debug)]
pub struct Hash4Matcher {
    head: Vec<u32>,
    prev: Vec<u16>,
    /// Head-only 3-byte table (see [`HASH3_BITS`]); same `pos + 1` stamp
    /// convention as `head`, no chain.
    head3: Vec<u32>,
    /// Local search statistics; see [`take_stats`](Self::take_stats).
    /// Module-visible so the sibling batch engine records into the same
    /// counters the sequential tokenizers use.
    pub(super) stats: SearchStats,
}

impl Default for Hash4Matcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hash4Matcher {
    /// Creates an empty matcher (the ~450 KB of tables allocate here).
    pub fn new() -> Self {
        Self {
            head: vec![0; HASH4_SIZE],
            prev: vec![0; WINDOW_SIZE],
            head3: vec![0; HASH3_SIZE],
            stats: SearchStats::default(),
        }
    }

    /// Clears the dictionary for a new buffer without reallocating; see
    /// the type docs for why `prev` may keep stale entries.
    pub fn reset(&mut self) {
        self.head.fill(0);
        self.head3.fill(0);
    }

    /// Takes and clears the accumulated search statistics.
    pub fn take_stats(&mut self) -> SearchStats {
        std::mem::take(&mut self.stats)
    }

    /// Inserts `pos` (requires `pos + 4 <= data.len()`).
    #[inline]
    pub fn insert(&mut self, data: &[u8], pos: usize) {
        self.insert_ret(data, pos);
    }

    /// Inserts `pos` and returns the previous heads for its hash4 and
    /// hash3 buckets (`position + 1`, or 0 if empty) — the entry points a
    /// search continues from, saving a second hash of the same bytes.
    #[inline]
    fn insert_ret(&mut self, data: &[u8], pos: usize) -> (u32, u32) {
        let h = hash4(data, pos);
        let old = self.head[h];
        let stamp = (pos + 1) as u32;
        self.head[h] = stamp;
        let delta = stamp.wrapping_sub(old);
        // Deltas beyond the window (or from an empty bucket) terminate
        // the chain; in-window deltas always fit u16.
        self.prev[pos & WMASK] = if old == 0 || delta as usize > WINDOW_SIZE {
            0
        } else {
            delta as u16
        };
        let h3 = hash3(data, pos);
        let old3 = self.head3[h3];
        self.head3[h3] = stamp;
        (old, old3)
    }

    /// Hash4-chain-only insert for the batch engine: publishes `pos`
    /// under the precomputed hash `h` and returns the previous head
    /// stamp (the bank-probe result). The hash3 side-table is published
    /// separately through [`spec_insert3`](Self::spec_insert3).
    #[inline(always)]
    pub(super) fn spec_insert(&mut self, h: usize, pos: usize) -> u32 {
        let old = self.head[h];
        let stamp = (pos + 1) as u32;
        let delta = stamp.wrapping_sub(old);
        self.prev[pos & WMASK] = if old == 0 || delta as usize > WINDOW_SIZE {
            0
        } else {
            delta as u16
        };
        self.head[h] = stamp;
        old
    }

    /// Head-only hash3 publish for the batch engine: stamps `pos` under
    /// the precomputed 3-byte hash `h3` and returns the previous stamp —
    /// the side-channel probe result the lanes fall back to when their
    /// hash4 walk comes up empty.
    #[inline(always)]
    pub(super) fn spec_insert3(&mut self, h3: usize, pos: usize) -> u32 {
        let old3 = self.head3[h3];
        self.head3[h3] = (pos + 1) as u32;
        old3
    }

    /// Backward chain delta stored for `pos` (0 = end of chain) — lets
    /// the batch engine walk chains without borrowing the whole matcher
    /// mutably.
    #[inline]
    pub(super) fn prev_delta(&self, pos: usize) -> u32 {
        u32::from(self.prev[pos & WMASK])
    }

    /// Newest stamp under hash `h` without publishing anything — the
    /// batch engine's stride-mode probe (a probe that also inserted
    /// would cut its own chain when the window pass re-inserts the
    /// position).
    #[inline]
    pub(super) fn head_stamp(&self, h: usize) -> u32 {
        self.head[h]
    }

    /// Walks the chain starting at `first` (a `position + 1` stamp as
    /// returned by [`insert_ret`](Self::insert_ret)) looking for the
    /// longest match at `pos` that beats `prev_len`. Ties prefer the
    /// nearest candidate (newest-first walk, strict `>` improvement),
    /// like zlib's `longest_match`.
    #[inline]
    fn search(
        &mut self,
        data: &[u8],
        pos: usize,
        first: u32,
        first3: u32,
        cfg: &MatcherConfig,
        prev_len: usize,
    ) -> Option<(usize, usize)> {
        let remaining = data.len() - pos;
        let mut best_len = prev_len.max(MIN_MATCH - 1);
        if remaining <= best_len {
            self.stats.record_walk(0);
            return None;
        }
        let max_len = MAX_MATCH.min(remaining);
        let mut best: Option<(usize, usize)> = None;
        let mut steps = 0usize;
        if first != 0 {
            let mut budget = cfg.max_chain;
            if prev_len >= cfg.good_length {
                budget >>= 2;
            }
            budget = budget.max(1);
            let nice = cfg.nice_length.min(remaining);
            let mut cur = first;
            // Hoisted `data[pos + best_len]` (zlib's scan_end): in bounds
            // because best_len < remaining here and stays so below (the
            // walk breaks before updating best_len to max_len).
            let mut scan_end = data[pos + best_len];
            loop {
                let cand = (cur - 1) as usize;
                if cand >= pos || pos - cand > WINDOW_SIZE {
                    break;
                }
                steps += 1;
                // Quick reject: for this candidate to improve on
                // `best_len`, the byte one past the current best must
                // match.
                if data[cand + best_len] == scan_end {
                    let len = match_length(data, cand, pos);
                    if len > best_len {
                        best = Some((len, pos - cand));
                        if len >= nice || len >= max_len {
                            break;
                        }
                        best_len = len;
                        scan_end = data[pos + best_len];
                    }
                }
                if steps >= budget {
                    break;
                }
                let delta = u32::from(self.prev[cand & WMASK]);
                if delta == 0 || delta >= cur {
                    break;
                }
                cur -= delta;
            }
        }
        // hash4 saw nothing: a pure 3-byte match is still possible (the
        // 4-byte hash can't represent it). One head-only hash3 probe —
        // columnar/delta data lives on these. A lone-candidate probe
        // settles for length 3 far more often than a chain walk would, so
        // the distance bound for 3-byte acceptance is much tighter than
        // `TOO_FAR`: past ~64 bytes the distance code usually costs more
        // than three frequent literals.
        if best.is_none() && best_len < MIN_MATCH && first3 != 0 {
            let cand = (first3 - 1) as usize;
            if cand < pos && pos - cand <= TOO_FAR {
                let len = match_length(data, cand, pos);
                if len > MIN_MATCH || (len == MIN_MATCH && pos - cand <= 64) {
                    best = Some((len, pos - cand));
                }
            }
        }
        self.stats.record_walk(steps);
        best
    }
}

/// Highest position that can be hashed/inserted (exclusive): positions
/// need 4 bytes of lookahead.
#[inline]
pub(super) fn index_end(data: &[u8]) -> usize {
    data.len().saturating_sub(3)
}

/// Indexes the history prefix `data[..start]` so tokens emitted for
/// `data[start..]` may reference back into it.
pub(super) fn index_history(m: &mut Hash4Matcher, data: &[u8], start: usize) {
    for p in 0..start.min(index_end(data)) {
        m.insert(data, p);
    }
}

/// Inserts the interior positions of a committed match, `from..cov_end`.
#[inline]
fn index_span(m: &mut Hash4Matcher, data: &[u8], from: usize, end: usize) {
    let cov_end = end.min(index_end(data));
    let mut p = from;
    while p < cov_end {
        m.insert(data, p);
        p += 1;
    }
}

/// Emits `1 + (lit_run >> shift)` literals starting at `pos` without
/// searching or indexing — the insert-skip heuristic. Returns the new
/// position. `shift` controls how aggressively the step grows; the step
/// is capped so one bad stretch cannot blind the matcher for long.
#[inline]
fn emit_skip_literals(
    data: &[u8],
    pos: usize,
    lit_run: &mut usize,
    shift: u32,
    tokens: &mut Vec<Token>,
) -> usize {
    let extra = (*lit_run >> shift).min(32);
    let end = (pos + 1 + extra).min(data.len());
    for &b in &data[pos..end] {
        tokens.push(Token::Literal(b));
    }
    *lit_run += end - pos;
    end
}

/// Level-1 tokenizer: greedy, head-only (no chain walk), with the
/// insert-skip heuristic — the [`crate::Level::Fastest`] pass.
pub fn tokenize_fastest_into(
    data: &[u8],
    start: usize,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    index_history(m, data, start);
    let end4 = index_end(data);
    let mut pos = start;
    let mut lit_run = 0usize;
    while pos < data.len() {
        if pos >= end4 {
            tokens.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let (old, _) = m.insert_ret(data, pos);
        m.stats.record_walk(usize::from(old != 0));
        if old != 0 {
            let cand = (old - 1) as usize;
            let dist = pos - cand;
            if dist <= WINDOW_SIZE {
                let len = match_length(data, cand, pos);
                if len >= 4 || (len == MIN_MATCH && dist <= TOO_FAR) {
                    tokens.push(Token::Match {
                        len: len as u16,
                        dist: dist as u16,
                    });
                    index_span(m, data, pos + 1, pos + len);
                    pos += len;
                    lit_run = 0;
                    continue;
                }
            }
        }
        pos = emit_skip_literals(data, pos, &mut lit_run, 5, tokens);
    }
}

/// Levels 2–3 tokenizer: greedy with a bounded chain walk.
pub fn tokenize_greedy4_into(
    data: &[u8],
    start: usize,
    cfg: &MatcherConfig,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    index_history(m, data, start);
    let end4 = index_end(data);
    let mut pos = start;
    let mut lit_run = 0usize;
    while pos < data.len() {
        if pos >= end4 {
            tokens.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let (first, first3) = m.insert_ret(data, pos);
        let found = m
            .search(data, pos, first, first3, cfg, 0)
            .filter(|&(len, dist)| len > MIN_MATCH || (len == MIN_MATCH && dist <= TOO_FAR));
        match found {
            Some((len, dist)) => {
                tokens.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                index_span(m, data, pos + 1, pos + len);
                pos += len;
                lit_run = 0;
            }
            None => {
                pos = emit_skip_literals(data, pos, &mut lit_run, 6, tokens);
            }
        }
    }
}

/// Levels 4–9 tokenizer: one-token lazy deferral (zlib `deflate_slow`)
/// over the hash4 chains. The skip heuristic only engages after long
/// literal droughts (shift 8 → 256 consecutive literals) so compressible
/// data keeps the exact lazy parse.
pub fn tokenize_lazy4_into(
    data: &[u8],
    start: usize,
    cfg: &MatcherConfig,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    index_history(m, data, start);
    let end4 = index_end(data);
    let mut pos = start;
    let mut lit_run = 0usize;
    // Pending match from the previous position, anchored at pos-1.
    let mut prev: Option<(usize, usize)> = None;
    while pos < data.len() {
        let cur = if pos < end4 {
            let prev_len = prev.map_or(0, |(l, _)| l);
            let (first, first3) = m.insert_ret(data, pos);
            // zlib refuses to extend searches once the previous match
            // reached max_lazy.
            if prev_len >= cfg.max_lazy {
                None
            } else {
                m.search(data, pos, first, first3, cfg, prev_len)
                    .filter(|&(len, dist)| len > MIN_MATCH || (len == MIN_MATCH && dist <= TOO_FAR))
            }
        } else {
            None
        };
        match (prev, cur) {
            (Some((plen, pdist)), cur) => {
                if cur.is_some_and(|(clen, _)| clen > plen) {
                    // Defer again: previous position becomes a literal.
                    m.stats.lazy_deferrals += 1;
                    tokens.push(Token::Literal(data[pos - 1]));
                    prev = cur;
                    pos += 1;
                } else {
                    // Commit the previous match (anchored at pos-1); pos
                    // itself was indexed by the search above.
                    tokens.push(Token::Match {
                        len: plen as u16,
                        dist: pdist as u16,
                    });
                    index_span(m, data, pos + 1, pos - 1 + plen);
                    pos = pos - 1 + plen;
                    prev = None;
                    lit_run = 0;
                }
            }
            (None, Some((clen, cdist))) => {
                if clen >= cfg.max_lazy || clen >= cfg.nice_length {
                    // Long enough: take it immediately (no deferral).
                    tokens.push(Token::Match {
                        len: clen as u16,
                        dist: cdist as u16,
                    });
                    index_span(m, data, pos + 1, pos + clen);
                    pos += clen;
                    lit_run = 0;
                } else {
                    // Defer the decision by one byte.
                    prev = Some((clen, cdist));
                    pos += 1;
                }
            }
            (None, None) => {
                pos = emit_skip_literals(data, pos, &mut lit_run, 8, tokens);
            }
        }
    }
    // A pending match at end-of-input fit entirely in the buffer
    // (search caps at the input end), so commit it.
    if let Some((plen, pdist)) = prev {
        tokens.push(Token::Match {
            len: plen as u16,
            dist: pdist as u16,
        });
    }
}

/// Dispatches to the engine's tokenizer for `level`, appending tokens
/// for `data[start..]` with `data[..start]` as history, then flushes the
/// accumulated search statistics into the process-wide telemetry. The
/// matcher must be fresh or [`Hash4Matcher::reset`].
///
/// Engine routing: [`super::Engine::Auto`] sends the throughput rungs
/// (levels 1–3) through the batched speculative matcher and the deeper
/// rungs through the sequential lazy matcher; `Sequential` restores the
/// pre-batch ladder (1 = fastest, 2–3 = greedy, 4–9 = lazy);
/// `Speculative` forces the batch engine at every rung.
pub fn tokenize_into_with(
    data: &[u8],
    start: usize,
    level: u32,
    engine: super::Engine,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    debug_assert!((1..=9).contains(&level));
    if engine.speculative_at(level) {
        super::batch::tokenize_speculative_into(data, start, level, m, tokens);
    } else if level <= 1 {
        tokenize_fastest_into(data, start, m, tokens);
    } else {
        let cfg = MatcherConfig::for_level(level);
        if MatcherConfig::is_lazy_level(level) {
            tokenize_lazy4_into(data, start, &cfg, m, tokens);
        } else {
            tokenize_greedy4_into(data, start, &cfg, m, tokens);
        }
    }
    crate::encoder::flush_search_stats(m.take_stats());
}

/// [`tokenize_into_with`] under [`super::Engine::Auto`] — the default
/// entry every one-shot and streaming path funnels through.
pub fn tokenize_into(
    data: &[u8],
    start: usize,
    level: u32,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    tokenize_into_with(data, start, level, super::Engine::Auto, m, tokens);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz77::expand_tokens;

    fn tokenize(data: &[u8], level: u32) -> Vec<Token> {
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        tokenize_into(data, 0, level, &mut m, &mut tokens);
        tokens
    }

    #[test]
    fn match_length_basic() {
        let data = b"abcdefgh--abcdefgh";
        assert_eq!(match_length(data, 0, 10), 8);
        let data2 = b"aaaa";
        assert_eq!(match_length(data2, 0, 1), 3);
    }

    #[test]
    fn match_length_capped_at_max_match() {
        let data = vec![7u8; 1000];
        assert_eq!(match_length(&data, 0, 100), MAX_MATCH);
    }

    #[test]
    fn match_length_capped_at_input_end() {
        let data = b"abcabc";
        assert_eq!(match_length(data, 0, 3), 3);
    }

    #[test]
    fn match_length_long_divergence() {
        let mut data = vec![5u8; 600];
        data[300 + 123] = 9; // diverge after 123 bytes
        assert_eq!(match_length(&data, 0, 300), 123);
    }

    #[test]
    fn all_literals_for_unique_bytes() {
        let data: Vec<u8> = (0..=255).collect();
        for level in 1..=9 {
            let tokens = tokenize(&data, level);
            assert_eq!(tokens.len(), 256, "level {level}");
            assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        }
    }

    #[test]
    fn pending_match_at_eof_committed() {
        // A deferred lazy match is still pending when the input ends.
        let data = b"abcdXabcd";
        for level in 4..=9 {
            let tokens = tokenize(data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        }
    }

    #[test]
    fn higher_levels_never_worse_on_text() {
        let data: Vec<u8> = std::iter::repeat_n(
            &b"the quick brown fox jumps over the lazy dog. pack my box with five dozen liquor jugs. "[..],
            50,
        )
        .flatten()
        .copied()
        .collect();
        let t4 = tokenize(&data, 4).len();
        let t9 = tokenize(&data, 9).len();
        assert!(t9 <= t4, "level 9 ({t9}) worse than level 4 ({t4})");
    }

    #[test]
    fn empty_and_tiny_inputs_all_levels() {
        for level in 1..=9 {
            assert!(tokenize(b"", level).is_empty());
            assert_eq!(
                tokenize(b"ab", level),
                vec![Token::Literal(b'a'), Token::Literal(b'b')],
                "level {level}"
            );
        }
    }

    #[test]
    fn finds_simple_repeat() {
        for level in 1..=9 {
            let data = b"abcdefabcdef";
            let tokens = tokenize(data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(
                tokens
                    .iter()
                    .any(|t| matches!(t, Token::Match { len: 6, dist: 6 })),
                "level {level}: {tokens:?}"
            );
        }
    }

    #[test]
    fn run_compresses_via_overlap() {
        for level in 1..=9 {
            let data = vec![b'z'; 3000];
            let tokens = tokenize(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(
                tokens.len() < 30,
                "level {level}: run produced {} tokens",
                tokens.len()
            );
        }
    }

    #[test]
    fn roundtrips_structured_data_all_levels() {
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(format!("key{}=value{};", i % 57, i % 13).as_bytes());
        }
        for level in 1..=9 {
            let tokens = tokenize(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().all(Token::is_valid), "level {level}");
        }
    }

    #[test]
    fn roundtrips_pseudorandom_data_with_skip_heuristic() {
        // Random bytes drive the skip heuristic; every byte must still be
        // covered by exactly one token.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 7) as u8
            })
            .collect();
        for level in 1..=9 {
            let tokens = tokenize(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
        }
    }

    #[test]
    fn history_matches_reach_back() {
        // Tokenize with the first half as history: tokens may reference it.
        let rec = b"history-record-history-record-";
        let mut data = rec.to_vec();
        let start = data.len();
        data.extend_from_slice(rec);
        for level in 1..=9 {
            let mut m = Hash4Matcher::new();
            let mut tokens = Vec::new();
            tokenize_into(&data, start, level, &mut m, &mut tokens);
            let covered: usize = tokens.iter().map(Token::input_len).sum();
            assert_eq!(covered, data.len() - start, "level {level}");
            assert!(
                tokens.iter().any(|t| matches!(t, Token::Match { .. })),
                "level {level}: no history match found"
            );
        }
    }

    #[test]
    fn window_bound_respected() {
        // A repeat more than a window apart must not produce a match
        // referencing past the window.
        let mut data = vec![0u8; WINDOW_SIZE + 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8 ^ (i / 997) as u8;
        }
        for level in [1, 3, 6, 9] {
            let tokens = tokenize(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().all(Token::is_valid), "level {level}");
        }
    }

    #[test]
    fn reset_clears_previous_buffer() {
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        let a = b"shared-prefix-0123456789-shared-prefix";
        tokenize_into(a, 0, 6, &mut m, &mut tokens);
        // Re-tokenizing a different buffer after reset must be
        // self-consistent (no matches into the dead buffer).
        m.reset();
        tokens.clear();
        let b = vec![7u8; 500];
        tokenize_into(&b, 0, 6, &mut m, &mut tokens);
        assert_eq!(expand_tokens(&tokens), b);
    }

    #[test]
    fn lazy_prefers_later_longer_match() {
        let data = b"0abc1abcd__0abc1abcd__xabcdefgh+abcdefgh";
        let lazy = tokenize(data, 9);
        let greedy = tokenize(data, 3);
        assert_eq!(expand_tokens(&lazy), data);
        assert_eq!(expand_tokens(&greedy), data);
        assert!(lazy.len() <= greedy.len());
    }

    #[test]
    fn chain_walk_stats_accumulate() {
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        let data: Vec<u8> = std::iter::repeat_n(&b"stat stat stat stat "[..], 50)
            .flatten()
            .copied()
            .collect();
        let cfg = MatcherConfig::for_level(6);
        tokenize_lazy4_into(&data, 0, &cfg, &mut m, &mut tokens);
        let stats = m.take_stats();
        assert!(stats.chain_hist.iter().sum::<u64>() > 0);
        // Second take is empty.
        assert_eq!(m.take_stats().chain_hist.iter().sum::<u64>(), 0);
    }

    // The cases below pin the sequential greedy (levels 2–3) and lazy
    // (levels 4–9) tokenizers directly, bypassing engine routing.

    fn greedy4(data: &[u8], level: u32) -> Vec<Token> {
        let mut tokens = Vec::new();
        let cfg = MatcherConfig::for_level(level);
        tokenize_greedy4_into(data, 0, &cfg, &mut Hash4Matcher::new(), &mut tokens);
        tokens
    }

    fn lazy4(data: &[u8], level: u32) -> Vec<Token> {
        let mut tokens = Vec::new();
        let cfg = MatcherConfig::for_level(level);
        tokenize_lazy4_into(data, 0, &cfg, &mut Hash4Matcher::new(), &mut tokens);
        tokens
    }

    #[test]
    fn greedy4_empty_input() {
        assert!(greedy4(b"", 2).is_empty());
    }

    #[test]
    fn greedy4_tail_shorter_than_min_match_is_literal() {
        assert_eq!(
            greedy4(b"ab", 2),
            vec![Token::Literal(b'a'), Token::Literal(b'b')]
        );
    }

    #[test]
    fn greedy4_finds_simple_repeat() {
        let data = b"abcdefabcdef";
        let tokens = greedy4(data, 2);
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Match { len: 6, dist: 6 })));
        assert_eq!(expand_tokens(&tokens), data);
    }

    #[test]
    fn greedy4_run_length_via_overlap() {
        let data = vec![b'z'; 300];
        let tokens = greedy4(&data, 3);
        assert_eq!(expand_tokens(&tokens), data);
        // A run should compress to literal + a few overlapping matches.
        assert!(tokens.len() <= 4, "run produced {} tokens", tokens.len());
    }

    #[test]
    fn greedy4_roundtrips_arbitrary_data_all_levels() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.push((i.wrapping_mul(2654435761) >> 13) as u8);
            if i % 7 == 0 {
                data.extend_from_slice(b"pattern");
            }
        }
        for level in 1..=3 {
            let tokens = greedy4(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().all(Token::is_valid));
        }
    }

    #[test]
    fn lazy4_empty_and_tiny_inputs() {
        assert!(lazy4(b"", 6).is_empty());
        assert_eq!(
            lazy4(b"ab", 6),
            vec![Token::Literal(b'a'), Token::Literal(b'b')]
        );
    }

    #[test]
    fn lazy4_prefers_later_longer_match() {
        let data = b"0abc1abcd__0abc1abcd__xabcdefgh+abcdefgh";
        let lazy = lazy4(data, 9);
        let greedy = greedy4(data, 9);
        assert_eq!(expand_tokens(&lazy), data);
        assert_eq!(expand_tokens(&greedy), data);
        assert!(lazy.len() <= greedy.len());
    }

    #[test]
    fn lazy4_roundtrips_structured_data_all_levels() {
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(format!("key{}=value{};", i % 57, i % 13).as_bytes());
        }
        for level in 4..=9 {
            let tokens = lazy4(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().all(Token::is_valid));
        }
    }

    #[test]
    fn lazy4_roundtrips_pseudorandom_data() {
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 7) as u8
            })
            .collect();
        let tokens = lazy4(&data, 6);
        assert_eq!(expand_tokens(&tokens), data);
    }

    #[test]
    fn lazy4_long_run_compresses_tightly() {
        let data = vec![b'r'; 10_000];
        let tokens = lazy4(&data, 6);
        assert_eq!(expand_tokens(&tokens), data);
        assert!(tokens.len() < 60, "run produced {} tokens", tokens.len());
    }

    #[test]
    fn search_ignores_candidate_outside_window() {
        // Insert a position, then search from more than a window away:
        // neither the hash4 chain nor the hash3 probe may return it.
        let data = vec![b'q'; WINDOW_SIZE + 100];
        let mut m = Hash4Matcher::new();
        m.insert(&data, 0);
        let pos = WINDOW_SIZE + 50;
        let (first, first3) = m.insert_ret(&data, pos);
        assert_eq!((first, first3), (1, 1), "position 0 heads both buckets");
        let cfg = MatcherConfig::for_level(9);
        let got = m.search(&data, pos, first, first3, &cfg, 0);
        assert!(got.is_none(), "stale candidate {got:?} escaped the window");
    }
}
