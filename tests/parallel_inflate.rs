//! End-to-end tests for the parallel + seekable inflate path, driven
//! through the public API only: the `Nx` facade, `ParallelInflater`,
//! and the serializable `SeekIndex`.
//!
//! The contract under test, from DESIGN.md: (1) parallel decompression
//! is byte-identical to serial decompression on every input, including
//! corrupt and truncated streams (same error, or same bytes — never a
//! third behaviour); (2) multi-member gzip decodes member-per-worker at
//! any worker count, and single streams decode on the serial core;
//! (3) `decompress_at` through a `SeekIndex` returns exactly the bytes a
//! full serial decode would place at that range, without decoding the
//! prefix.

use nx_core::{software, Format, Nx, ParallelInflateOptions, ParallelInflater, SeekIndex};
use nx_deflate::CompressionLevel;

const SEED: u64 = 0x5EEC_AB1E;

fn inflater(workers: usize) -> ParallelInflater {
    ParallelInflater::new(ParallelInflateOptions {
        workers,
        checkpoint_every: 64 * 1024,
    })
}

fn gzip(data: &[u8]) -> Vec<u8> {
    software::compress(data, CompressionLevel::default(), Format::Gzip)
}

/// A deterministic multi-member gzip stream: `n` members of varying,
/// seeded sizes, plus the concatenated payload they must decode to.
fn multi_member(n: usize) -> (Vec<u8>, Vec<u8>) {
    let mut stream = Vec::new();
    let mut payload = Vec::new();
    for i in 0..n {
        let part = nx_corpus::mixed(SEED + i as u64, 24 * 1024 + 7 * 1024 * (i % 3));
        stream.extend_from_slice(&gzip(&part));
        payload.extend_from_slice(&part);
    }
    (stream, payload)
}

#[test]
fn multi_member_roundtrip_at_every_worker_count() {
    let (stream, payload) = multi_member(8);
    for workers in [1, 2, 4, 8] {
        let inf = inflater(workers);
        let out = inf.decompress(&stream, Format::Gzip).expect("decodes");
        assert_eq!(out, payload, "workers={workers} changed the payload");
        if workers > 1 {
            assert_eq!(
                inf.stats().members_parallel(),
                8,
                "workers={workers} must take the member-per-worker path"
            );
        }
    }
}

#[test]
fn single_member_matches_serial_on_corpora() {
    // One large member per corpus flavour: the single-stream route must
    // reproduce the serial bytes exactly, for every container.
    for (seed, size) in [(SEED, 384 * 1024), (SEED ^ 0xFF, 1024 * 1024)] {
        let data = nx_corpus::mixed(seed, size);
        for format in [Format::Gzip, Format::Zlib, Format::RawDeflate] {
            let enc = software::compress(&data, CompressionLevel::default(), format);
            let inf = inflater(4);
            let par = inf.decompress(&enc, format).expect("parallel decodes");
            let ser = software::decompress(&enc, format).expect("serial decodes");
            assert_eq!(par, ser, "format {format:?} diverged from serial");
            assert_eq!(par, data);
        }
    }
}

#[test]
fn corrupt_and_truncated_streams_match_serial_semantics() {
    let data = nx_corpus::mixed(SEED, 512 * 1024);
    let gz = gzip(&data);
    let inf = inflater(4);
    // Corruption at several depths: header, mid-stream, trailer.
    for pos in [3usize, gz.len() / 3, gz.len() / 2, gz.len() - 4] {
        let mut bad = gz.clone();
        bad[pos] ^= 0x55;
        let par = inf.decompress(&bad, Format::Gzip);
        let ser = software::decompress(&bad, Format::Gzip);
        match (&par, &ser) {
            (Ok(p), Ok(s)) => assert_eq!(p, s, "flip at {pos}: both ok but bytes differ"),
            (Err(_), Err(_)) => {}
            _ => panic!("flip at {pos}: parallel={par:?} serial={ser:?} disagree on ok/err"),
        }
    }
    // Truncation: every prefix class must error, never panic or hang.
    for keep in [0, 5, 18, gz.len() / 4, gz.len() - 1] {
        let cut = &gz[..keep];
        assert!(
            inf.decompress(cut, Format::Gzip).is_err(),
            "truncated to {keep} bytes must be an error"
        );
    }
}

#[test]
fn truncated_multi_member_degrades_to_serial_error() {
    let (stream, _) = multi_member(4);
    let inf = inflater(4);
    let cut = &stream[..stream.len() - 6];
    // The member fast path cannot chain-validate a cut tail; it must
    // fall back and surface the serial error, not a bogus payload.
    assert!(inf.decompress(cut, Format::Gzip).is_err());
    assert!(inf.stats().serial_fallbacks() >= 1);
}

/// Minimal xorshift64* generator: deterministic fuzz positions without
/// pulling in an RNG dependency.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn seek_index_random_slices_match_serial_bytes() {
    // Property test over (offset, len) pairs: any indexed random access
    // equals the same slice of a full serial decode.
    let data = nx_corpus::mixed(SEED, 768 * 1024);
    let gz = gzip(&data);
    let inf = inflater(4);
    let (full, index) = {
        let index = inf.build_index(&gz, Format::Gzip).expect("index");
        let full = software::decompress(&gz, Format::Gzip).expect("serial");
        (full, index)
    };
    assert_eq!(index.total_out(), full.len() as u64);
    let mut rng = Rng(SEED | 1);
    for round in 0..64 {
        let offset = (rng.next() % (full.len() as u64 + 1)) as usize;
        let len = (rng.next() % 40_000) as usize;
        let got = inf
            .decompress_at(&gz, &index, offset as u64, len)
            .unwrap_or_else(|e| panic!("round {round}: offset={offset} len={len}: {e}"));
        let want = &full[offset..(offset + len).min(full.len())];
        assert_eq!(got, want, "round {round}: offset={offset} len={len}");
    }
    // Edge cases the RNG may miss.
    assert_eq!(
        inf.decompress_at(&gz, &index, 0, full.len()).expect("all"),
        full
    );
    assert!(inf
        .decompress_at(&gz, &index, full.len() as u64, 10)
        .expect("at end")
        .is_empty());
    assert!(inf
        .decompress_at(&gz, &index, full.len() as u64 + 1, 1)
        .is_err());
}

#[test]
fn seek_index_survives_serialization() {
    let data = nx_corpus::mixed(SEED ^ 7, 256 * 1024);
    let gz = gzip(&data);
    let inf = inflater(2);
    let index = inf.build_index(&gz, Format::Gzip).expect("index");
    let wire = index.to_bytes();
    let back = SeekIndex::from_bytes(&wire).expect("parses");
    assert_eq!(back.total_out(), index.total_out());
    assert_eq!(back.checkpoints().len(), index.checkpoints().len());
    let got = inf
        .decompress_at(&gz, &back, 100_000, 5_000)
        .expect("seek via deserialized index");
    let full = software::decompress(&gz, Format::Gzip).expect("serial");
    assert_eq!(got, &full[100_000..105_000]);
    // Damaged wire forms are rejected, not misread.
    assert!(SeekIndex::from_bytes(&wire[..wire.len() - 1]).is_err());
    let mut bad = wire.clone();
    bad[0] ^= 0xFF;
    assert!(SeekIndex::from_bytes(&bad).is_err());
}

#[test]
fn facade_parallel_decode_and_seek_work_end_to_end() {
    let nx = Nx::power9();
    let (stream, payload) = multi_member(3);
    let out = nx
        .decompress_parallel(&stream, Format::Gzip)
        .expect("facade decode");
    assert_eq!(out, payload);
    let index = nx.build_index(&stream, Format::Gzip).expect("facade index");
    let got = nx
        .decompress_at(&stream, &index, 40_000, 8_192)
        .expect("facade seek");
    assert_eq!(got, &payload[40_000..48_192]);
    let s = nx.decode_parallel_stats();
    assert!(s.requests() >= 1);
    assert!(s.seek_index_hits() >= 1);
    assert!(s.bytes_out() >= payload.len() as u64);
}
