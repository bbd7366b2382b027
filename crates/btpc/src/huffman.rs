//! Adaptive Huffman entropy coder (periodic-rebuild canonical variant).
//!
//! BTPC uses six adaptive Huffman coders, one per neighbourhood pattern.
//! This implementation adapts by maintaining per-symbol frequency counts
//! and rebuilding a canonical Huffman code every `period` symbols;
//! encoder and decoder perform identical updates at identical points, so
//! no side information is transmitted. The frequency and code tables are
//! [`TrackedArray`]s: they are basic groups of the application (the
//! paper's 20-bit-wide arrays are exactly these frequency counters).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use memx_profile::{ProfileRegistry, TrackedArray};

use crate::{BitReader, BitWriter, ReadBitsError};

/// Maximum canonical code length; frequencies are rescaled until the
/// optimal code fits.
const MAX_CODE_LEN: u32 = 16;

/// One adaptive Huffman coder over a fixed symbol alphabet.
///
/// # Example
///
/// ```
/// use memx_btpc::{AdaptiveHuffman, BitWriter, BitReader};
/// use memx_profile::ProfileRegistry;
///
/// let registry = ProfileRegistry::new();
/// let mut enc = AdaptiveHuffman::new(0, 16, 8, &registry);
/// let mut dec = AdaptiveHuffman::new(0, 16, 8, &registry);
/// let mut w = BitWriter::new();
/// for s in [3u16, 3, 3, 7, 3] {
///     enc.encode(s, &mut w);
/// }
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// for s in [3u16, 3, 3, 7, 3] {
///     assert_eq!(dec.decode(&mut r).unwrap(), s);
/// }
/// ```
#[derive(Debug)]
pub struct AdaptiveHuffman {
    symbols: usize,
    period: u32,
    since_rebuild: u32,
    /// Per-symbol frequency counts (a tracked basic group, 20-bit wide in
    /// the paper's terms).
    freq: TrackedArray<u32>,
    /// Per-symbol canonical code table: `code | (len << 24)` (tracked).
    code: TrackedArray<u32>,
    /// Symbols sorted by (length, symbol) — the canonical order the
    /// decoder walks. Rebuilt together with `code`.
    canon_order: Vec<u16>,
    /// `first_code[l]` = canonical code value of the first symbol of
    /// length `l`; `first_index[l]` = its rank in `canon_order`.
    first_code: Vec<u32>,
    first_index: Vec<u32>,
}

impl AdaptiveHuffman {
    /// Creates a coder for `symbols` distinct symbols, rebuilding its
    /// code every `period` coded symbols. Tables register with `registry`
    /// as `huff_freq_<context>` and `huff_code_<context>`.
    ///
    /// # Panics
    ///
    /// Panics if `symbols` is 0 or exceeds `u16::MAX`, or `period` is 0.
    pub fn new(context: usize, symbols: usize, period: u32, registry: &ProfileRegistry) -> Self {
        assert!(
            symbols > 0 && symbols <= usize::from(u16::MAX),
            "bad alphabet size"
        );
        assert!(period > 0, "rebuild period must be positive");
        let mut freq = registry.array(&format!("huff_freq_{context}"), symbols);
        freq.fill_untracked(&vec![1u32; symbols]);
        let code = registry.array(&format!("huff_code_{context}"), symbols);
        let mut coder = AdaptiveHuffman {
            symbols,
            period,
            since_rebuild: 0,
            freq,
            code,
            canon_order: Vec::new(),
            first_code: Vec::new(),
            first_index: Vec::new(),
        };
        coder.rebuild();
        coder
    }

    /// Encodes `symbol` into `out` and adapts.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the alphabet.
    pub fn encode(&mut self, symbol: u16, out: &mut BitWriter) {
        let s = usize::from(symbol);
        assert!(s < self.symbols, "symbol outside alphabet");
        let entry = self.code.read(s);
        let len = entry >> 24;
        let code = entry & 0x00FF_FFFF;
        out.put_bits(code, len);
        self.adapt(s);
    }

    /// Decodes one symbol from `input` and adapts.
    ///
    /// # Errors
    ///
    /// Returns an error if the bitstream ends mid-symbol.
    pub fn decode(&mut self, input: &mut BitReader<'_>) -> Result<u16, ReadBitsError> {
        let mut code = 0u32;
        let mut len = 0usize;
        loop {
            code = (code << 1) | u32::from(input.get_bit()?);
            len += 1;
            if len > MAX_CODE_LEN as usize {
                // Corrupt stream: no canonical code is this long.
                return Err(ReadBitsError {
                    position: input.position(),
                });
            }
            // Within length `len`, canonical codes occupy a contiguous
            // range starting at first_code[len].
            let count_at_len = self.count_at_len(len);
            if count_at_len > 0 {
                let first = self.first_code[len];
                if code >= first && code - first < count_at_len {
                    let rank = self.first_index[len] + (code - first);
                    let symbol = self.canon_order[rank as usize];
                    // Mirror the encoder's table read for faithful access
                    // counting.
                    let _ = self.code.read(usize::from(symbol));
                    self.adapt(usize::from(symbol));
                    return Ok(symbol);
                }
            }
        }
    }

    /// Number of symbols whose canonical code has length `len`.
    fn count_at_len(&self, len: usize) -> u32 {
        if len + 1 < self.first_index.len() {
            self.first_index[len + 1] - self.first_index[len]
        } else if len < self.first_index.len() {
            self.canon_order.len() as u32 - self.first_index[len]
        } else {
            0
        }
    }

    /// Bumps the symbol's frequency and periodically rebuilds the code.
    fn adapt(&mut self, symbol: usize) {
        let f = self.freq.read(symbol);
        self.freq.write(symbol, f + 1);
        self.since_rebuild += 1;
        if self.since_rebuild >= self.period {
            self.since_rebuild = 0;
            self.rebuild();
        }
    }

    /// Rebuilds the canonical code table from the current frequencies.
    fn rebuild(&mut self) {
        let mut freqs: Vec<u64> = (0..self.symbols)
            .map(|s| u64::from(self.freq.read(s)))
            .collect();
        let mut lens = huffman_code_lengths(&freqs);
        while lens.iter().any(|&l| l > MAX_CODE_LEN) {
            // Flatten the distribution until the optimal code fits in
            // MAX_CODE_LEN bits; encoder and decoder rescale identically.
            for (s, f) in freqs.iter_mut().enumerate() {
                *f = *f / 2 + 1;
                self.freq.write(s, *f as u32);
            }
            lens = huffman_code_lengths(&freqs);
        }

        // Canonical assignment: sort symbols by (length, symbol).
        let mut order: Vec<u16> = (0..self.symbols as u16).collect();
        order.sort_by_key(|&s| (lens[usize::from(s)], s));
        let max_len = lens.iter().copied().max().unwrap_or(1) as usize;
        let mut first_code = vec![0u32; max_len + 2];
        let mut first_index = vec![0u32; max_len + 2];
        let mut next_code = 0u32;
        let mut idx = 0u32;
        let mut prev_len = 0u32;
        for &s in &order {
            let l = lens[usize::from(s)];
            if l > prev_len {
                next_code <<= l - prev_len;
                for fill in (prev_len + 1)..=l {
                    let shifted = next_code >> (l - fill);
                    first_code[fill as usize] = shifted;
                    first_index[fill as usize] = idx;
                }
                prev_len = l;
            }
            self.code.write(usize::from(s), next_code | (l << 24));
            next_code += 1;
            idx += 1;
        }
        // Lengths above the maximum used must report "no symbols":
        // close the boundary so count_at_len(max_len) sees the total.
        for entry in first_index.iter_mut().skip(prev_len as usize + 1) {
            *entry = idx;
        }
        self.canon_order = order;
        self.first_code = first_code;
        self.first_index = first_index;
    }
}

/// Computes optimal Huffman code lengths for the given frequencies
/// (all must be positive), with deterministic tie-breaking.
fn huffman_code_lengths(freqs: &[u64]) -> Vec<u32> {
    let n = freqs.len();
    if n == 1 {
        return vec![1];
    }
    // Node arena: leaves 0..n, internal nodes appended.
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| Reverse((f, i)))
        .collect();
    let mut weights: Vec<u64> = freqs.to_vec();
    while heap.len() > 1 {
        let Reverse((fa, a)) = heap.pop().expect("heap size checked");
        let Reverse((fb, b)) = heap.pop().expect("heap size checked");
        let node = weights.len();
        weights.push(fa + fb);
        parent.push(usize::MAX);
        parent[a] = node;
        parent[b] = node;
        heap.push(Reverse((fa + fb, node)));
    }
    (0..n)
        .map(|leaf| {
            let mut depth = 0u32;
            let mut node = leaf;
            while parent[node] != usize::MAX {
                node = parent[node];
                depth += 1;
            }
            depth.max(1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ProfileRegistry {
        ProfileRegistry::new()
    }

    #[test]
    fn code_lengths_satisfy_kraft() {
        let freqs = [50u64, 20, 10, 10, 5, 5];
        let lens = huffman_code_lengths(&freqs);
        let kraft: f64 = lens.iter().map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft {kraft}");
    }

    #[test]
    fn frequent_symbols_get_short_codes() {
        let freqs = [1000u64, 1, 1, 1, 1, 1, 1, 1];
        let lens = huffman_code_lengths(&freqs);
        assert!(lens[0] < lens[7]);
    }

    #[test]
    fn single_symbol_alphabet_has_one_bit_code() {
        assert_eq!(huffman_code_lengths(&[42]), vec![1]);
    }

    #[test]
    fn round_trip_skewed_stream() {
        let reg = registry();
        let mut enc = AdaptiveHuffman::new(0, 64, 16, &reg);
        let mut dec = AdaptiveHuffman::new(0, 64, 16, &reg);
        let stream: Vec<u16> = (0..500).map(|i| if i % 7 == 0 { 13 } else { 2 }).collect();
        let mut w = BitWriter::new();
        for &s in &stream {
            enc.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &stream {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn round_trip_all_symbols() {
        let reg = registry();
        let mut enc = AdaptiveHuffman::new(1, 32, 8, &reg);
        let mut dec = AdaptiveHuffman::new(1, 32, 8, &reg);
        let stream: Vec<u16> = (0..32u16).cycle().take(200).collect();
        let mut w = BitWriter::new();
        for &s in &stream {
            enc.encode(s, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &stream {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn adaptation_compresses_skewed_streams() {
        let reg = registry();
        let mut enc = AdaptiveHuffman::new(2, 256, 32, &reg);
        let mut w = BitWriter::new();
        for _ in 0..2000 {
            enc.encode(0, &mut w);
        }
        // A fully skewed stream must approach 1 bit/symbol.
        assert!(w.bit_len() < 2600, "bits = {}", w.bit_len());
    }

    #[test]
    fn truncated_stream_reports_error() {
        let reg = registry();
        let mut dec = AdaptiveHuffman::new(3, 256, 32, &reg);
        let mut r = BitReader::new(&[]);
        assert!(dec.decode(&mut r).is_err());
    }

    #[test]
    fn tables_are_tracked() {
        let reg = registry();
        let mut enc = AdaptiveHuffman::new(4, 16, 4, &reg);
        let mut w = BitWriter::new();
        enc.encode(5, &mut w);
        let p = reg.snapshot();
        let (fr, fw) = p.counts("huff_freq_4").unwrap();
        assert!(fr > 0.0 && fw > 0.0);
        let (cr, _cw) = p.counts("huff_code_4").unwrap();
        assert!(cr > 0.0);
    }

    #[test]
    #[should_panic(expected = "symbol outside alphabet")]
    fn encode_out_of_alphabet_panics() {
        let reg = registry();
        let mut enc = AdaptiveHuffman::new(5, 8, 4, &reg);
        enc.encode(8, &mut BitWriter::new());
    }
}
