//! Length-prefixed framing and the little-endian wire codec.
//!
//! Every protocol message travels as one **frame**: a 4-byte
//! little-endian length followed by that many payload bytes.  Frames are
//! the unit of everything above this module — the chaos proxy forwards,
//! delays, and drops *whole frames*, so a lossy link can lose messages
//! but can never desynchronize the stream.
//!
//! [`FrameReader`] is the read half: it accumulates partial reads across
//! socket timeouts (a heartbeat tick landing mid-frame must not discard
//! the prefix already read) and yields complete frames only.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on one frame's payload.  The largest legitimate frame is
/// `Welcome` (job bytes + selection history); anything bigger is a
/// corrupt or hostile peer and the connection is dropped.
pub const MAX_FRAME: usize = 64 << 20;

/// Write one frame (length prefix + payload) and flush.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Buffered frame reassembly over a [`TcpStream`] with a read timeout.
///
/// [`poll_frame`](FrameReader::poll_frame) returns `Ok(Some(frame))`
/// when a whole frame is available, `Ok(None)` when the read timed out
/// with the frame still incomplete (the partial bytes stay buffered),
/// and `Err` on EOF or a real I/O error.  The read timeout is the
/// caller's poll tick: it is set on the stream once, before wrapping
/// (25 ms on a worker's or standby's connection, 100 ms on the
/// coordinator's per-peer readers).
pub struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameReader {
    /// Wrap `stream`, whose read timeout the caller has set.
    pub fn new(stream: TcpStream) -> Self {
        FrameReader {
            stream,
            buf: Vec::new(),
        }
    }

    fn take_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized frame",
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }

    /// Read until a whole frame is buffered or the socket's read timeout
    /// elapses.
    pub fn poll_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Little-endian field encoder (the write half of the codec).
#[derive(Default)]
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an `f64` (IEEE-754 bits — exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
}

/// Little-endian field decoder (the read half of the codec).  Every
/// accessor fails cleanly on truncated input — a malformed frame must
/// never panic the peer.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated message")
}

impl<'a> Dec<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Read a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read an `f64`.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Whether every byte was consumed.
    pub fn done(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrip() {
        let mut e = Enc::default();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.f64(-0.125);
        e.bytes(b"hello");
        let mut d = Dec::new(&e.0);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert!(d.done());
    }

    #[test]
    fn decoder_rejects_truncation() {
        let mut e = Enc::default();
        e.u64(42);
        let mut d = Dec::new(&e.0[..5]);
        assert!(d.u64().is_err());
        let mut e2 = Enc::default();
        e2.bytes(b"abcdef");
        let mut d2 = Dec::new(&e2.0[..7]);
        assert!(d2.bytes().is_err());
    }

    #[test]
    fn frames_roundtrip_over_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut r = FrameReader::new(s);
            let mut got = Vec::new();
            for _ in 0..3 {
                loop {
                    if let Some(f) = r.poll_frame().unwrap() {
                        got.push(f);
                        break;
                    }
                }
            }
            got
        });
        let mut c = TcpStream::connect(addr).unwrap();
        write_frame(&mut c, b"").unwrap();
        write_frame(&mut c, b"x").unwrap();
        write_frame(&mut c, &vec![9u8; 10_000]).unwrap();
        let got = t.join().unwrap();
        assert_eq!(got[0], b"");
        assert_eq!(got[1], b"x");
        assert_eq!(got[2], vec![9u8; 10_000]);
    }

    #[test]
    fn partial_reads_survive_timeouts() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            s.set_read_timeout(Some(std::time::Duration::from_millis(2)))
                .unwrap();
            let mut r = FrameReader::new(s);
            let mut timeouts = 0;
            loop {
                match r.poll_frame().unwrap() {
                    Some(f) => return (f, timeouts),
                    None => timeouts += 1,
                }
            }
        });
        let mut c = TcpStream::connect(addr).unwrap();
        // Dribble one frame byte-by-byte so the reader times out mid-frame.
        let mut wire = Vec::new();
        let body = b"split-across-timeouts".to_vec();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        use std::io::Write as _;
        for b in wire {
            c.write_all(&[b]).unwrap();
            c.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(8));
        }
        let (frame, timeouts) = t.join().unwrap();
        assert_eq!(frame, body);
        assert!(timeouts > 0, "reader must have ticked through timeouts");
    }
}
