//! The one little-endian byte codec under every binary format.
//!
//! The `.tmsb` header and names block, TMKC checkpoint blobs, every
//! `tmkp` payload, the server's checkpoint envelope and the client's
//! checkpoint file encode their fixed fields with [`ByteWriter`] and
//! decode them with [`ByteReader`]. (The `.tmsb` layer payload keeps its
//! fixed-stride decoder in [`crate::binio`].) The reader owns the rules
//! every format shares:
//! - every read is bounds-checked and names the field it reads, so input
//!   cut short is a [`ByteError`], never a panic;
//! - a claimed count `n` is accepted only if `n ×` the element's minimum
//!   encoded size fits in the unread bytes ([`ByteReader::claim`]), so
//!   nothing sized from a count can outgrow the bytes that back it;
//! - [`ByteReader::finish`] refuses bytes left over after the last field.
//!
//! Each format maps a [`ByteError`] onto its own typed error.

use std::fmt;

/// Why a [`ByteReader`] refused its input: the field it was reading,
/// where, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteError(String);

impl fmt::Display for ByteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ByteError {}

/// Reads little-endian fields off a byte slice; see the module docs for
/// the rules it owns. The per-field reads are `#[inline]`, so a decoder
/// in another crate reads each field without a call.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn error(&self, what: &str, problem: fmt::Arguments<'_>) -> ByteError {
        ByteError(format!("{what} at byte {}: {problem}", self.at))
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ByteError> {
        let left = self.remaining();
        if n > left {
            return Err(self.error(what, format_args!("needs {n} bytes, {left} left")));
        }
        self.at += n;
        Ok(&self.buf[self.at - n..self.at])
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], ByteError> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returns N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, ByteError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, ByteError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32, ByteError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64, ByteError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian bit pattern, bit for bit.
    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64, ByteError> {
        self.u64(what).map(f64::from_bits)
    }

    /// `n` `f64`s, bit for bit, in one bounds check.
    pub fn f64s(&mut self, n: usize, what: &str) -> Result<Vec<f64>, ByteError> {
        let bytes = self.take(n.saturating_mul(8), what)?;
        let f64_at = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
        Ok(bytes.chunks_exact(8).map(f64_at).collect())
    }

    /// Accepts a claimed count of `what` only if `count` elements of at
    /// least `min_bytes` each fit in the unread bytes: the one count rule
    /// of every binary format.
    pub fn claim(&self, count: u64, min_bytes: usize, what: &str) -> Result<usize, ByteError> {
        let left = self.remaining();
        usize::try_from(count)
            .ok()
            .filter(|n| n.checked_mul(min_bytes.max(1)).is_some_and(|t| t <= left))
            .ok_or_else(|| self.error(what, format_args!("{count} claimed, {left} bytes left")))
    }

    /// A `u32` count of `what`, under [`ByteReader::claim`]'s rule.
    pub fn count_u32(&mut self, min_bytes: usize, what: &str) -> Result<usize, ByteError> {
        let n = self.u32(what)?;
        self.claim(n.into(), min_bytes, what)
    }

    /// A `u64` count of `what`, under [`ByteReader::claim`]'s rule.
    pub fn count_u64(&mut self, min_bytes: usize, what: &str) -> Result<usize, ByteError> {
        let n = self.u64(what)?;
        self.claim(n, min_bytes, what)
    }

    /// A `u32`-length-prefixed byte run.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], ByteError> {
        let len = self.count_u32(1, what)?;
        self.take(len, what)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<&'a str, ByteError> {
        let b = self.bytes(what)?;
        std::str::from_utf8(b).map_err(|_| self.error(what, format_args!("not valid UTF-8")))
    }

    /// Everything not read yet.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.at..];
        self.at = self.buf.len();
        rest
    }

    /// Refuses bytes left over after `what`, the format's last field.
    pub fn finish(&self, what: &str) -> Result<(), ByteError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(self.error(what, format_args!("{left} bytes left over after it"))),
        }
    }
}

/// Appends little-endian fields to a growing buffer: the encoder
/// [`ByteReader`] decodes.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        let buf = Vec::with_capacity(n);
        ByteWriter { buf }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.raw(&[v])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// An `f64` as its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// `f64`s as their little-endian bit patterns, with no count.
    pub fn f64s(&mut self, v: &[f64]) -> &mut Self {
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.f64(x);
        }
        self
    }

    /// A `u32`-length-prefixed byte run. A run past `u32::MAX` bytes
    /// gets a wrapped prefix; no format can carry it whole (a `tmkp`
    /// frame's own length is a `u32`).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32).raw(v)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Bytes with no length prefix.
    #[inline]
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Takes the bytes written, leaving the writer empty.
    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_and_writer_are_inverses() {
        let bytes = ByteWriter::new()
            .u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .f64(0.1 + 0.2)
            .str("tenant")
            .bytes(&[1, 2, 3])
            .raw(b"xy")
            .finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u16("b"), Ok(300));
        assert_eq!(r.u32("c"), Ok(70_000));
        assert_eq!(r.u64("d"), Ok(1 << 40));
        assert_eq!(r.f64("e").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.str("f"), Ok("tenant"));
        assert_eq!(r.bytes("g"), Ok(&[1u8, 2, 3][..]));
        assert!(r.finish("g").is_err());
        assert_eq!(r.rest(), b"xy");
        assert_eq!(r.finish("rest"), Ok(()));
        let past = r.u8("a field past the end").unwrap_err().to_string();
        assert_eq!(
            past,
            "a field past the end at byte 42: needs 1 bytes, 0 left"
        );
    }

    /// A count is accepted only if its elements fit in the bytes behind
    /// it, at their minimum size, whatever the count's width.
    #[test]
    fn counts_must_fit_in_the_bytes_left() {
        let bytes = ByteWriter::new().u64(3).raw(&[0; 24]).finish();
        assert_eq!(ByteReader::new(&bytes).count_u64(8, "cells"), Ok(3));
        let refused = ByteReader::new(&bytes).count_u64(9, "cells");
        assert_eq!(
            refused.unwrap_err().to_string(),
            "cells at byte 8: 3 claimed, 24 bytes left"
        );
        let huge = ByteWriter::new().u64(u64::MAX).finish();
        assert!(ByteReader::new(&huge).count_u64(1, "cells").is_err());
        assert!(ByteReader::new(&huge)
            .count_u64(usize::MAX, "cells")
            .is_err());
        // A length prefix claiming more than follows is refused as a count.
        let run = ByteWriter::new().u32(5).raw(b"abc").finish();
        assert!(ByteReader::new(&run).bytes("run").is_err());
    }

    #[test]
    fn bad_utf8_and_every_cut_are_errors() {
        let bytes = ByteWriter::new().bytes(&[0xff, 0xfe]).finish();
        assert!(ByteReader::new(&bytes).str("name").is_err());
        let bytes = ByteWriter::new().u16(1).str("abc").f64(1.5).finish();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let read = r.u16("a").and_then(|_| r.str("b")).and_then(|_| r.f64("c"));
            assert!(read.is_err(), "cut at {cut} read through");
        }
    }
}
