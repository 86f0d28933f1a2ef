//! Column encodings.
//!
//! Five physical layouts cover every logical column in the store:
//!
//! | kind | layout | used for |
//! |------|--------|----------|
//! | `U32`    | fixed 4-byte rows + per-block zone maps | addresses, ASN, packet counts |
//! | `U16`    | fixed 2-byte rows                       | ports |
//! | `DICT8`  | u8 codes + string dictionary + per-value bitmaps | protocol, country, honeypot, misconfiguration, … |
//! | `T64`    | delta+LEB128 with block restarts        | sim-time columns (sorted) |
//! | `BITSET` | one bit per row in u64 words            | boolean flags |
//!
//! Every block structure uses [`BLOCK_ROWS`]-row blocks; the per-block
//! (min, max) directory of `U32` and `T64` *is* the zone map, and `T64`'s
//! restart offsets double as the random-access index into the varint
//! stream. Encoders append to a [`Writer`]; decoders are thin views over
//! the mapped file that copy only metadata (dictionaries, block
//! directories) at open time — row data is always read in place.

use crate::bytes::{u16_at, u32_at, u64_at, FormatError, Reader, Result, Writer};

/// Rows per zone-map / restart block.
pub const BLOCK_ROWS: usize = 1024;

/// Physical column kinds (the `kind` byte in a table's column directory).
pub const KIND_U32: u8 = 0;
pub const KIND_U16: u8 = 1;
pub const KIND_DICT8: u8 = 2;
pub const KIND_T64: u8 = 3;
pub const KIND_BITSET: u8 = 4;

fn words_for(rows: usize) -> usize {
    rows.div_ceil(64)
}

/// The byte length of `rows` fixed-width rows, or a [`FormatError`] when a
/// corrupt row count overflows it.
fn rows_len(rows: usize, width: usize) -> Result<usize> {
    rows.checked_mul(width)
        .ok_or_else(|| FormatError(format!("{rows} rows of {width} bytes overflow")))
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

/// Encode a `U32` column: `zoned u8`, row data, then (if zoned) the
/// per-block `(min, max)` directory.
pub fn encode_u32(w: &mut Writer, values: &[u32], zoned: bool) {
    w.u8(zoned as u8);
    for &v in values {
        w.u32(v);
    }
    if zoned {
        let blocks: Vec<(u32, u32)> = values
            .chunks(BLOCK_ROWS)
            .map(|c| {
                let min = c.iter().copied().min().unwrap_or(0);
                let max = c.iter().copied().max().unwrap_or(0);
                (min, max)
            })
            .collect();
        w.u32(blocks.len() as u32);
        for (min, max) in blocks {
            w.u32(min);
            w.u32(max);
        }
    }
}

/// Encode a `U16` column: raw row data.
pub fn encode_u16(w: &mut Writer, values: &[u16]) {
    for &v in values {
        w.u16(v);
    }
}

/// Builder for a `DICT8` column: labels are assigned codes in first-appearance
/// order, which makes the dictionary — and therefore the file bytes — a pure
/// function of the row stream.
pub struct DictBuilder {
    labels: Vec<String>,
    codes: Vec<u8>,
}

impl DictBuilder {
    pub fn new() -> DictBuilder {
        DictBuilder {
            labels: Vec::new(),
            codes: Vec::new(),
        }
    }

    pub fn push(&mut self, label: &str) {
        let code = match self.labels.iter().position(|l| l == label) {
            Some(i) => i,
            None => {
                assert!(self.labels.len() < 256, "DICT8 overflow: >256 distinct labels");
                self.labels.push(label.to_string());
                self.labels.len() - 1
            }
        };
        self.codes.push(code as u8);
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Encode: `dict_count u16`, dictionary strings, row codes, then one
    /// bitmap (bit i = "row i has this value") per dictionary entry.
    pub fn encode(&self, w: &mut Writer) {
        w.u16(self.labels.len() as u16);
        for l in &self.labels {
            w.string(l);
        }
        w.bytes(&self.codes);
        let words = words_for(self.codes.len());
        for code in 0..self.labels.len() {
            let mut bitmap = vec![0u64; words];
            for (row, &c) in self.codes.iter().enumerate() {
                if c as usize == code {
                    bitmap[row / 64] |= 1 << (row % 64);
                }
            }
            for word in bitmap {
                w.u64(word);
            }
        }
    }
}

/// Encode a `T64` column (values must be non-decreasing): a restart-block
/// directory of `(min, max, byte_off)` followed by the varint stream —
/// each block opens with its first value absolute, then deltas.
pub fn encode_t64(w: &mut Writer, values: &[u64]) {
    debug_assert!(values.windows(2).all(|p| p[0] <= p[1]), "T64 input must be sorted");
    let mut data = Writer::new();
    let mut dir: Vec<(u64, u64, u64)> = Vec::with_capacity(values.len().div_ceil(BLOCK_ROWS));
    for chunk in values.chunks(BLOCK_ROWS) {
        let off = data.len() as u64;
        dir.push((chunk[0], *chunk.last().unwrap(), off));
        data.varint(chunk[0]);
        for pair in chunk.windows(2) {
            data.varint(pair[1] - pair[0]);
        }
    }
    w.u32(dir.len() as u32);
    for (min, max, off) in dir {
        w.u64(min);
        w.u64(max);
        w.u64(off);
    }
    w.bytes(&data.buf);
}

/// Encode a `BITSET` column: `rows.div_ceil(64)` words.
pub fn encode_bitset(w: &mut Writer, bits: &[bool]) {
    let mut words = vec![0u64; words_for(bits.len())];
    for (row, &b) in bits.iter().enumerate() {
        if b {
            words[row / 64] |= 1 << (row % 64);
        }
    }
    for word in words {
        w.u64(word);
    }
}

// ---------------------------------------------------------------------------
// Decoders (views over the mapped file)
// ---------------------------------------------------------------------------

/// View of a `U32` column.
#[derive(Debug, Clone)]
pub struct U32View {
    /// Absolute byte offset of the row data in the file.
    data_off: usize,
    rows: usize,
    /// Per-block (min, max); empty when the column was written unzoned.
    pub zones: Vec<(u32, u32)>,
}

impl U32View {
    pub fn parse(file: &[u8], off: usize, len: usize, rows: usize) -> Result<U32View> {
        let mut r = Reader::at(file, off);
        let zoned = r.u8()? != 0;
        let data_off = r.pos;
        r.slice(rows_len(rows, 4)?)?;
        let zones = if zoned {
            let n = r.u32()? as usize;
            if n != rows.div_ceil(BLOCK_ROWS) {
                return Err(FormatError(format!("U32 zone count {n} for {rows} rows")));
            }
            (0..n).map(|_| Ok((r.u32()?, r.u32()?))).collect::<Result<_>>()?
        } else {
            Vec::new()
        };
        if r.pos > off + len {
            return Err(FormatError("U32 column overruns its directory entry".into()));
        }
        Ok(U32View { data_off, rows, zones })
    }

    #[inline]
    pub fn get(&self, file: &[u8], row: usize) -> u32 {
        u32_at(file, self.data_off + row * 4)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row indexes equal to `value`, pruned through the zone map: blocks
    /// whose `[min, max]` excludes the value are never touched.
    pub fn find_eq(&self, file: &[u8], value: u32) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_eq(file, value, |row| out.push(row));
        out
    }

    /// Visit row indexes equal to `value` (zone-pruned, ascending).
    /// Returns the number of rows the zone map pruned — rows in blocks the
    /// scan never touched. Deterministic: a pure function of the store and
    /// the value, so it can feed the regression sentinel's counters.
    pub fn for_each_eq(&self, file: &[u8], value: u32, mut f: impl FnMut(usize)) -> u64 {
        if self.zones.is_empty() {
            for row in 0..self.rows {
                if self.get(file, row) == value {
                    f(row);
                }
            }
            return 0;
        }
        let mut pruned = 0u64;
        for (block, &(min, max)) in self.zones.iter().enumerate() {
            let start = block * BLOCK_ROWS;
            let end = (start + BLOCK_ROWS).min(self.rows);
            if value < min || value > max {
                pruned += (end - start) as u64;
                continue;
            }
            for row in start..end {
                if self.get(file, row) == value {
                    f(row);
                }
            }
        }
        pruned
    }
}

/// View of a `U16` column.
#[derive(Debug, Clone)]
pub struct U16View {
    data_off: usize,
    rows: usize,
}

impl U16View {
    pub fn parse(file: &[u8], off: usize, len: usize, rows: usize) -> Result<U16View> {
        let bytes = rows_len(rows, 2)?;
        if len < bytes {
            return Err(FormatError("U16 column shorter than its row count".into()));
        }
        let mut r = Reader::at(file, off);
        r.slice(bytes)?;
        Ok(U16View { data_off: off, rows })
    }

    #[inline]
    pub fn get(&self, file: &[u8], row: usize) -> u16 {
        u16_at(file, self.data_off + row * 2)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// View of a `DICT8` column: dictionary copied out at open, codes and
/// bitmaps read in place.
#[derive(Debug, Clone)]
pub struct DictView {
    pub labels: Vec<String>,
    codes_off: usize,
    bitmaps_off: usize,
    rows: usize,
}

impl DictView {
    pub fn parse(file: &[u8], off: usize, len: usize, rows: usize) -> Result<DictView> {
        let mut r = Reader::at(file, off);
        let n = r.u16()? as usize;
        let labels: Vec<String> = (0..n).map(|_| r.string()).collect::<Result<_>>()?;
        let codes_off = r.pos;
        // Validate every code once, here, so row reads can index the
        // dictionary unchecked.
        if r.slice(rows)?.iter().max().is_some_and(|&c| c as usize >= n) {
            return Err(FormatError(format!("DICT8 code outside its {n}-label dictionary")));
        }
        let bitmaps_off = r.pos;
        r.slice(rows_len(n, words_for(rows) * 8)?)?;
        if r.pos > off + len {
            return Err(FormatError("DICT8 column overruns its directory entry".into()));
        }
        Ok(DictView {
            labels,
            codes_off,
            bitmaps_off,
            rows,
        })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn code(&self, file: &[u8], row: usize) -> u8 {
        file[self.codes_off + row]
    }

    pub fn label(&self, file: &[u8], row: usize) -> &str {
        &self.labels[self.code(file, row) as usize]
    }

    /// Dictionary code of `label`, if the store saw that value.
    pub fn code_of(&self, label: &str) -> Option<u8> {
        self.labels.iter().position(|l| l == label).map(|i| i as u8)
    }

    fn words(&self) -> usize {
        words_for(self.rows)
    }

    /// The bitmap word at `word_idx` for dictionary entry `code`.
    #[inline]
    pub fn bitmap_word(&self, file: &[u8], code: u8, word_idx: usize) -> u64 {
        u64_at(file, self.bitmaps_off + (code as usize * self.words() + word_idx) * 8)
    }

    /// Rows carrying `code`, by bitmap popcount — O(rows / 64).
    pub fn count(&self, file: &[u8], code: u8) -> u64 {
        (0..self.words())
            .map(|i| self.bitmap_word(file, code, i).count_ones() as u64)
            .sum()
    }
}

/// One restart block of a `T64` column.
#[derive(Debug, Clone, Copy)]
pub struct TimeBlock {
    pub min: u64,
    pub max: u64,
    /// Byte offset of the block's varint run, relative to the stream start.
    pub off: u64,
}

/// View of a `T64` column.
#[derive(Debug, Clone)]
pub struct T64View {
    pub blocks: Vec<TimeBlock>,
    data_off: usize,
    rows: usize,
}

impl T64View {
    pub fn parse(file: &[u8], off: usize, len: usize, rows: usize) -> Result<T64View> {
        let mut r = Reader::at(file, off);
        let n = r.u32()? as usize;
        if n != rows.div_ceil(BLOCK_ROWS) {
            return Err(FormatError(format!("T64 block count {n} for {rows} rows")));
        }
        let blocks: Vec<TimeBlock> = (0..n)
            .map(|_| {
                Ok(TimeBlock {
                    min: r.u64()?,
                    max: r.u64()?,
                    off: r.u64()?,
                })
            })
            .collect::<Result<_>>()?;
        let data_off = r.pos;
        if data_off > off + len {
            return Err(FormatError("T64 column overruns its directory entry".into()));
        }
        Ok(T64View { blocks, data_off, rows })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Decode one block, calling `f(row, value)`; returns `false` from `f`
    /// to stop early (values within a block are non-decreasing).
    pub fn decode_block(
        &self,
        file: &[u8],
        block: usize,
        mut f: impl FnMut(usize, u64) -> bool,
    ) -> Result<()> {
        let start_row = block * BLOCK_ROWS;
        let rows_here = (self.rows - start_row).min(BLOCK_ROWS);
        let mut r = Reader::at(file, self.data_off.saturating_add(self.blocks[block].off as usize));
        let mut v = r.varint()?;
        if !f(start_row, v) {
            return Ok(());
        }
        for i in 1..rows_here {
            v = v
                .checked_add(r.varint()?)
                .ok_or_else(|| FormatError("T64 delta overflows".into()))?;
            if !f(start_row + i, v) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Visit every `(row, time)` with `start <= time < end`, in row order.
    /// Blocks outside the range are skipped via the restart directory.
    /// Returns the number of rows skipped without decoding (rows in blocks
    /// before the first candidate and after the early break) — the restart
    /// directory's analogue of a zone-map prune count, deterministic for a
    /// given store and range.
    pub fn for_each_in_range(
        &self,
        file: &[u8],
        start: u64,
        end: u64,
        mut f: impl FnMut(usize, u64),
    ) -> Result<u64> {
        if start >= end {
            return Ok(0);
        }
        // First block that could contain `start` (times are globally sorted).
        let first = self.blocks.partition_point(|b| b.max < start);
        let mut pruned = (first * BLOCK_ROWS).min(self.rows) as u64;
        for block in first..self.blocks.len() {
            if self.blocks[block].min >= end {
                // Everything from this block on is past the range.
                pruned += (self.rows - block * BLOCK_ROWS) as u64;
                break;
            }
            self.decode_block(file, block, |row, t| {
                if t >= end {
                    return false;
                }
                if t >= start {
                    f(row, t);
                }
                true
            })?;
        }
        Ok(pruned)
    }
}

/// View of a `BITSET` column.
#[derive(Debug, Clone)]
pub struct BitsetView {
    data_off: usize,
    rows: usize,
}

impl BitsetView {
    pub fn parse(_file: &[u8], off: usize, len: usize, rows: usize) -> Result<BitsetView> {
        if len < words_for(rows) * 8 {
            return Err(FormatError("BITSET column shorter than its row count".into()));
        }
        Ok(BitsetView { data_off: off, rows })
    }

    #[inline]
    pub fn get(&self, file: &[u8], row: usize) -> bool {
        let word = u64_at(file, self.data_off + (row / 64) * 8);
        word & (1 << (row % 64)) != 0
    }

    #[inline]
    pub fn word(&self, file: &[u8], word_idx: usize) -> u64 {
        u64_at(file, self.data_off + word_idx * 8)
    }

    pub fn count(&self, file: &[u8]) -> u64 {
        (0..words_for(self.rows))
            .map(|i| self.word(file, i).count_ones() as u64)
            .sum()
    }

    pub fn rows(&self) -> usize {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_zone_maps_prune() {
        let values: Vec<u32> = (0..3000).map(|i| i * 2).collect();
        let mut w = Writer::new();
        encode_u32(&mut w, &values, true);
        let v = U32View::parse(&w.buf, 0, w.buf.len(), values.len()).unwrap();
        assert_eq!(v.zones.len(), 3);
        assert_eq!(v.get(&w.buf, 1234), 2468);
        assert_eq!(v.find_eq(&w.buf, 2468), vec![1234]);
        assert_eq!(v.find_eq(&w.buf, 2469), Vec::<usize>::new());
    }

    #[test]
    fn dict_roundtrip_and_bitmaps() {
        let mut b = DictBuilder::new();
        let labels = ["tcp", "udp", "tcp", "icmp", "udp", "tcp"];
        for l in labels {
            b.push(l);
        }
        let mut w = Writer::new();
        b.encode(&mut w);
        let v = DictView::parse(&w.buf, 0, w.buf.len(), labels.len()).unwrap();
        assert_eq!(v.labels, vec!["tcp", "udp", "icmp"]);
        assert_eq!(v.label(&w.buf, 3), "icmp");
        assert_eq!(v.count(&w.buf, v.code_of("tcp").unwrap()), 3);
        assert_eq!(v.count(&w.buf, v.code_of("udp").unwrap()), 2);
        assert_eq!(v.code_of("gre"), None);
    }

    #[test]
    fn t64_range_scan() {
        let values: Vec<u64> = (0..2500u64).map(|i| i * 10).collect();
        let mut w = Writer::new();
        encode_t64(&mut w, &values);
        let v = T64View::parse(&w.buf, 0, w.buf.len(), values.len()).unwrap();
        assert_eq!(v.blocks.len(), 3);
        let mut seen = Vec::new();
        v.for_each_in_range(&w.buf, 10_240, 10_300, |row, t| seen.push((row, t)))
            .unwrap();
        assert_eq!(seen, vec![(1024, 10_240), (1025, 10_250), (1026, 10_260), (1027, 10_270), (1028, 10_280), (1029, 10_290)]);
        let mut n = 0;
        v.for_each_in_range(&w.buf, 0, u64::MAX, |_, _| n += 1).unwrap();
        assert_eq!(n, values.len());
    }

    #[test]
    fn bitset_roundtrip() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let mut w = Writer::new();
        encode_bitset(&mut w, &bits);
        let v = BitsetView::parse(&w.buf, 0, w.buf.len(), bits.len()).unwrap();
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(v.get(&w.buf, i), b, "bit {i}");
        }
        assert_eq!(v.count(&w.buf), bits.iter().filter(|&&b| b).count() as u64);
    }
}
