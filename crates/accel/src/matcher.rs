//! The multi-lane LZ77 match engine with speculative cover resolution.
//!
//! Every cycle the engine ingests `lanes` bytes. Each lane hashes its
//! 3-byte prefix, probes the banked hash table for up to `ways` candidate
//! positions, and wide comparators score the best candidate per lane.
//! A selection network then chooses a non-overlapping token cover of the
//! lane window minimizing estimated encoded bits — the hardware's
//! *speculative* answer to zlib's inherently sequential lazy matching
//! (the paper's key throughput-vs-ratio trade-off, measured in E12).
//!
//! Functional equivalence note: candidates are validated by comparing
//! actual bytes under the configured window bound, which is exactly what
//! the hardware's history-buffer comparators do (see
//! [`crate::history::HistoryBuffer`] for the structural ring model; a test
//! here cross-checks the two give identical match lengths).

use crate::config::{AccelConfig, Resolution};
use crate::hashbank::HashBank;
use nx_deflate::lz77::hash4::match_length;
use nx_deflate::lz77::{dist_code, length_code_index, Token, DIST_EXTRA, LENGTH_EXTRA};
use nx_deflate::{MAX_MATCH, MIN_MATCH};

/// Result of tokenizing one request.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// The LZ77 token stream (lossless cover of the input).
    pub tokens: Vec<Token>,
    /// Cycles spent ingesting new data (`ceil(n / lanes)`).
    pub ingest_cycles: u64,
    /// Cycles spent re-streaming carried history through the hash
    /// pipeline (chunked requests only; zero for whole-buffer requests).
    pub history_cycles: u64,
    /// Extra cycles lost to hash-bank port conflicts.
    pub bank_stall_cycles: u64,
    /// Matches found then discarded by the resolver (speculation waste).
    pub discarded_matches: u64,
}

/// The match engine. Holds the hash table so repeated requests model a
/// real engine (the table is reset per request, as the hardware does
/// between jobs).
#[derive(Debug)]
pub struct MatchEngine {
    cfg: AccelConfig,
    bank: HashBank,
}

/// Estimated encoded size of a literal token, in bits (a mid-corpus
/// literal code length).
const LIT_BITS: u64 = 9;

/// Estimated encoded size of a match token, in bits.
fn match_bits(len: u16, dist: u16) -> u64 {
    let li = length_code_index(len);
    let di = dist_code(dist);
    7 + u64::from(LENGTH_EXTRA[li]) + 5 + u64::from(DIST_EXTRA[di])
}

/// A candidate match anchored at a lane position.
#[derive(Debug, Clone, Copy)]
struct LaneMatch {
    len: u16,
    dist: u16,
}

impl MatchEngine {
    /// Creates an engine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`AccelConfig::validate`].
    pub fn new(cfg: AccelConfig) -> Self {
        cfg.validate();
        let bank = HashBank::new(cfg.hash_bits, cfg.hash_ways, cfg.hash_banks);
        Self { cfg, bank }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Tokenizes `data` with the hardware algorithm.
    pub fn tokenize(&mut self, data: &[u8]) -> MatchOutcome {
        self.tokenize_from(data, 0)
    }

    /// Tokenizes `data[start..]`, treating `data[..start]` as carried
    /// history: the engine re-streams it through the hash pipeline (DMA'd
    /// in via the request's history DDE, costing `history_cycles`), after
    /// which the new bytes may match back into it.
    ///
    /// # Panics
    ///
    /// Panics if `start > data.len()`.
    pub fn tokenize_from(&mut self, data: &[u8], start: usize) -> MatchOutcome {
        assert!(start <= data.len(), "history beyond input");
        self.bank.reset();
        let n = data.len();
        let lanes = self.cfg.lanes;
        let mut tokens = Vec::with_capacity((n - start) / 4 + 8);
        let mut ingest_cycles = 0u64;
        let mut bank_stall_cycles = 0u64;
        let mut discarded = 0u64;

        // Re-stream history into the dictionary at lane rate.
        for p in 0..start.min(n.saturating_sub(MIN_MATCH - 1)) {
            let set = self.bank.hash(data, p);
            self.bank.insert(set, p);
        }
        let history_cycles = (start as u64).div_ceil(lanes as u64);

        // First position not yet covered by an emitted token.
        let mut emit_until = start;
        let mut cur = start;
        let mut lane_matches: Vec<Option<LaneMatch>> = vec![None; lanes];
        let mut accessed_sets: Vec<usize> = Vec::with_capacity(lanes);

        while cur < n {
            ingest_cycles += 1;
            let window_end = (cur + lanes).min(n);
            accessed_sets.clear();
            for lm in lane_matches.iter_mut() {
                *lm = None;
            }

            // Phase 1: all lanes probe in parallel.
            for q in cur..window_end {
                if q + MIN_MATCH > n {
                    break;
                }
                let set = self.bank.hash(data, q);
                accessed_sets.push(set);
                let max_len = MAX_MATCH.min(n - q);
                let mut best: Option<LaneMatch> = None;
                for cand in self.bank.lookup(set) {
                    if cand >= q || q - cand > self.cfg.history_bytes {
                        continue;
                    }
                    let len = match_length(data, cand, q);
                    if len < MIN_MATCH {
                        continue;
                    }
                    // Far 3-byte matches cost more bits than literals.
                    if len == MIN_MATCH && q - cand > 4096 {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => len > usize::from(b.len),
                    };
                    if better {
                        best = Some(LaneMatch {
                            len: len as u16,
                            dist: (q - cand) as u16,
                        });
                        if len >= max_len {
                            break; // comparator saturated
                        }
                    }
                }
                lane_matches[q - cur] = best;
            }

            // Port conflicts among this cycle's lookups. Identical set
            // indices merge into one physical access (the hardware
            // combines duplicate lane requests — crucial for runs, where
            // every lane hashes identically).
            accessed_sets.sort_unstable();
            accessed_sets.dedup();
            bank_stall_cycles += self
                .bank
                .conflict_stalls(&accessed_sets, self.cfg.bank_read_ports);

            // Phase 2: insert every ingested position (the dictionary is
            // maintained regardless of cover decisions).
            for q in cur..window_end {
                if q + MIN_MATCH <= n {
                    let set = self.bank.hash(data, q);
                    self.bank.insert(set, q);
                }
            }

            // Phase 3: resolve a token cover for [max(cur, emit_until),
            // window_end).
            let w0 = emit_until.max(cur);
            if w0 < window_end {
                let found = lane_matches.iter().flatten().count() as u64;
                let emitted = match self.cfg.resolution {
                    Resolution::Speculative => self.resolve_speculative(
                        data,
                        cur,
                        w0,
                        window_end,
                        &lane_matches,
                        &mut tokens,
                    ),
                    Resolution::Greedy => {
                        Self::resolve_greedy(data, cur, w0, window_end, &lane_matches, &mut tokens)
                    }
                };
                emit_until = emitted;
                let used = tokens
                    .iter()
                    .rev()
                    .take_while(|t| matches!(t, Token::Match { .. }))
                    .count(); // approximation only used for the waste metric
                discarded += found.saturating_sub(used as u64);
            }

            cur = window_end;
        }

        debug_assert_eq!(
            tokens.iter().map(Token::input_len).sum::<usize>(),
            n - start,
            "token cover must be exact"
        );
        MatchOutcome {
            tokens,
            ingest_cycles,
            history_cycles,
            bank_stall_cycles,
            discarded_matches: discarded,
        }
    }

    /// Minimum-estimated-bits cover of `[w0, window_end)` via dynamic
    /// programming over the lane window. Returns the first uncovered
    /// position (≥ `window_end` when a match overshoots the window).
    #[allow(clippy::too_many_arguments)]
    fn resolve_speculative(
        &self,
        data: &[u8],
        cur: usize,
        w0: usize,
        window_end: usize,
        lane_matches: &[Option<LaneMatch>],
        tokens: &mut Vec<Token>,
    ) -> usize {
        let m = window_end - w0;
        // dp[i]: min estimated bits to cover positions w0+i .. window_end.
        // A match crossing the window boundary covers future bytes too;
        // its cost is amortized over the in-window fraction so that long
        // boundary-crossing matches are not penalized (they are the whole
        // point of the design).
        let mut dp = vec![f64::INFINITY; m + 1];
        let mut choice: Vec<Option<LaneMatch>> = vec![None; m];
        dp[m] = 0.0;
        for i in (0..m).rev() {
            let mut best = LIT_BITS as f64 + dp[i + 1];
            let mut pick = None;
            if let Some(lm) = lane_matches[w0 + i - cur] {
                let len = usize::from(lm.len);
                let inside = (m - i).min(len);
                let cost = match_bits(lm.len, lm.dist) as f64 * inside as f64 / len as f64;
                let land = (i + len).min(m);
                let total = cost + dp[land];
                // Prefer the match on ties: fewer tokens downstream.
                if total <= best {
                    best = total;
                    pick = Some(lm);
                }
            }
            dp[i] = best;
            choice[i] = pick;
        }
        // Walk the chosen cover.
        let mut i = 0usize;
        while i < m {
            match choice[i] {
                Some(lm) => {
                    tokens.push(Token::Match {
                        len: lm.len,
                        dist: lm.dist,
                    });
                    i += usize::from(lm.len);
                }
                None => {
                    tokens.push(Token::Literal(data[w0 + i]));
                    i += 1;
                }
            }
        }
        w0 + i
    }

    /// First-match-wins cover (the ablation baseline).
    fn resolve_greedy(
        data: &[u8],
        cur: usize,
        w0: usize,
        window_end: usize,
        lane_matches: &[Option<LaneMatch>],
        tokens: &mut Vec<Token>,
    ) -> usize {
        let mut i = w0;
        while i < window_end {
            match lane_matches[i - cur] {
                Some(lm) => {
                    tokens.push(Token::Match {
                        len: lm.len,
                        dist: lm.dist,
                    });
                    i += usize::from(lm.len);
                }
                None => {
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                }
            }
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nx_deflate::lz77::expand_tokens;

    fn engine() -> MatchEngine {
        MatchEngine::new(AccelConfig::power9())
    }

    #[test]
    fn empty_input() {
        let out = engine().tokenize(b"");
        assert!(out.tokens.is_empty());
        assert_eq!(out.ingest_cycles, 0);
    }

    #[test]
    fn cover_is_lossless_on_structured_data() {
        let data: Vec<u8> = b"the paper describes the accelerator the paper describes ".repeat(40);
        let out = engine().tokenize(&data);
        assert_eq!(expand_tokens(&out.tokens), data);
        assert!(out.tokens.iter().all(|t| t.is_valid()));
        // Repetitive text must actually produce matches.
        let matches = out
            .tokens
            .iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .count();
        assert!(matches > 10, "only {matches} matches");
    }

    #[test]
    fn ingest_cycles_are_ceil_n_over_lanes() {
        let data = vec![0u8; 1000];
        let out = engine().tokenize(&data);
        assert_eq!(out.ingest_cycles, 1000u64.div_ceil(8));
        let out_z15 = MatchEngine::new(AccelConfig::z15()).tokenize(&data);
        assert_eq!(out_z15.ingest_cycles, 1000u64.div_ceil(16));
    }

    #[test]
    fn run_detection_across_cycles() {
        let data = vec![b'r'; 4096];
        let out = engine().tokenize(&data);
        assert_eq!(expand_tokens(&out.tokens), data);
        // First window is literals; afterwards long matches dominate.
        assert!(
            out.tokens.len() < 64,
            "{} tokens for a pure run",
            out.tokens.len()
        );
    }

    #[test]
    fn respects_configured_history_window() {
        let mut cfg = AccelConfig::power9();
        cfg.history_bytes = 1024;
        let mut data = b"UNIQUEMOTIF0123".to_vec();
        data.extend(std::iter::repeat_n(b'.', 4000)); // > window of filler
        data.extend_from_slice(b"UNIQUEMOTIF0123");
        let out = MatchEngine::new(cfg).tokenize(&data);
        assert_eq!(expand_tokens(&out.tokens), data);
        for t in &out.tokens {
            if let Token::Match { dist, .. } = t {
                assert!(usize::from(*dist) <= 1024, "match beyond window: {t:?}");
            }
        }
    }

    #[test]
    fn speculative_no_worse_than_greedy() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("k{}v{};", i % 83, i % 17).as_bytes());
        }
        let spec = engine().tokenize(&data);
        let mut gcfg = AccelConfig::power9();
        gcfg.resolution = Resolution::Greedy;
        let greedy = MatchEngine::new(gcfg).tokenize(&data);
        assert_eq!(expand_tokens(&spec.tokens), data);
        assert_eq!(expand_tokens(&greedy.tokens), data);
        let bits = |ts: &[Token]| -> u64 {
            ts.iter()
                .map(|t| match *t {
                    Token::Literal(_) => LIT_BITS,
                    Token::Match { len, dist } => match_bits(len, dist),
                })
                .sum()
        };
        assert!(bits(&spec.tokens) <= bits(&greedy.tokens));
    }

    #[test]
    fn pseudorandom_data_is_covered_by_literals() {
        let mut x = 88172645463325252u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let out = engine().tokenize(&data);
        assert_eq!(expand_tokens(&out.tokens), data);
        let lits = out
            .tokens
            .iter()
            .filter(|t| matches!(t, Token::Literal(_)))
            .count();
        assert!(lits as f64 > data.len() as f64 * 0.8, "{lits} literals");
    }

    #[test]
    fn ring_and_direct_comparison_agree() {
        // The matcher compares against `data` under a distance bound; the
        // structural ring model must agree wherever the bound admits the
        // candidate.
        use crate::history::HistoryBuffer;
        let data: Vec<u8> = b"abcabcabcXabcabc__abcabcabc".to_vec();
        let mut ring = HistoryBuffer::new(32 * 1024);
        for q in 1..data.len() {
            ring.reset();
            ring.push_slice(&data[..q]);
            for cand in 0..q {
                let direct = match_length(&data, cand, q);
                let via_ring = ring.match_length(cand as u64, &data[q..], MAX_MATCH);
                assert_eq!(direct, via_ring, "cand {cand} q {q}");
            }
        }
    }

    #[test]
    fn duplicate_lane_lookups_merge_so_runs_do_not_stall() {
        // A constant stream hashes every lane to the same set; the request
        // combiner merges them into one access, so no stalls.
        let data = vec![b'z'; 8192];
        let out = engine().tokenize(&data);
        assert_eq!(out.bank_stall_cycles, 0, "merged lookups must not stall");
    }

    #[test]
    fn single_ported_banks_stall_on_diverse_data() {
        // With one read port and few banks, distinct prefixes collide by
        // the birthday bound over thousands of windows.
        let mut cfg = AccelConfig::power9();
        cfg.bank_read_ports = 1;
        cfg.hash_banks = 4;
        let mut data = Vec::new();
        for i in 0..4000u32 {
            data.extend_from_slice(format!("w{i:05}x").as_bytes());
        }
        let out = MatchEngine::new(cfg).tokenize(&data);
        assert!(
            out.bank_stall_cycles > 0,
            "no stalls on single-ported banks"
        );
    }
}
