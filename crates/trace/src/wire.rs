//! Little-endian byte-level codec with offset-carrying errors.
//!
//! [`Writer`] is an append-only buffer; [`Reader`] is a cursor whose every
//! read either yields the value or a [`TraceError::Truncated`] naming the
//! exact offset — the loader never indexes out of bounds and never panics
//! on malformed input.

use crate::error::TraceError;

/// Append-only little-endian buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian cursor over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// A cursor positioned at `offset` into `buf`.
    pub fn at(buf: &'a [u8], offset: usize) -> Reader<'a> {
        Reader { buf, pos: offset }
    }

    /// Current byte offset.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < n {
            return Err(TraceError::Truncated {
                offset: self.pos as u64,
                needed: n as u64,
                len: self.buf.len() as u64,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, TraceError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed (u32) UTF-8 string.
    ///
    /// The length is sanity-bounded by the bytes actually remaining, so a
    /// corrupt length yields [`TraceError::Truncated`] rather than an
    /// attempted multi-gigabyte allocation.
    pub fn str(&mut self) -> Result<String, TraceError> {
        let at = self.pos as u64;
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Corrupt {
            offset: at,
            what: format!("string of {n} byte(s) is not valid UTF-8"),
        })
    }

    /// Reads a u64 count that prefixes `elem_size`-byte elements, rejecting
    /// counts that could not possibly fit in the remaining bytes (so corrupt
    /// counts fail fast instead of driving huge allocations).
    pub fn count(&mut self, elem_size: usize) -> Result<usize, TraceError> {
        let at = self.pos as u64;
        let n = self.u64()?;
        let cap = (self.remaining() / elem_size.max(1)) as u64;
        if n > cap {
            return Err(TraceError::Corrupt {
                offset: at,
                what: format!(
                    "count {n} exceeds the {cap} element(s) the remaining bytes could hold"
                ),
            });
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_reports_the_offset() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        match r.u32() {
            Err(TraceError::Truncated {
                offset,
                needed,
                len,
            }) => {
                assert_eq!((offset, needed, len), (1, 4, 3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn absurd_count_is_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.count(4), Err(TraceError::Corrupt { .. })));
    }
}
