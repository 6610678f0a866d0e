//! The TCP link: a real loopback socket pair carrying length-prefixed
//! frames (see [`super::codec`]), one reader thread per link.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use csaw_core::value::Bytes;
use csaw_kv::Update;
use parking_lot::Mutex;

use super::codec::{decode_frame, encode_frame_header, MAX_FRAME_BYTES};
use super::DeliverFn;
use crate::cell::JunctionId;

/// How much one `read` may take in ahead of the frame being decoded:
/// a small frame, or several, cost one system call. A longer body takes
/// what is buffered and reads the rest straight into its own allocation.
const READ_AHEAD: usize = 16 << 10;

/// Write half of a TCP link: the stream plus a reusable header buffer
/// guarded by the same mutex, so headers are encoded straight into a
/// long-lived allocation while the writer is held anyway.
struct TcpWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub(super) struct TcpLink {
    writer: Mutex<TcpWriter>,
}

impl TcpLink {
    /// Create a connected loopback pair; the read side feeds `deliver`.
    pub(super) fn new(deliver: DeliverFn, shutdown: Arc<AtomicBool>) -> std::io::Result<TcpLink> {
        Self::over(TcpListener::bind("127.0.0.1:0")?, deliver, shutdown)
    }

    /// Connect a writer to `listener` and read what it writes. Any local
    /// process can connect to the listener before the writer does, so
    /// only the connection whose peer is the writer's own address
    /// becomes the reader; every other one is closed unread.
    fn over(
        listener: TcpListener,
        deliver: DeliverFn,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<TcpLink> {
        let writer = TcpStream::connect(listener.local_addr()?)?;
        let ours = writer.local_addr()?;
        let reader = loop {
            let (stream, peer) = listener.accept()?;
            if peer == ours {
                break stream;
            }
        };
        writer.set_nodelay(true).ok();
        reader.set_nodelay(true).ok();
        std::thread::Builder::new()
            .name("csaw-tcplink".into())
            .spawn(move || Self::read_loop(reader, deliver, shutdown))
            .expect("spawn tcp reader");
        Ok(TcpLink {
            writer: Mutex::new(TcpWriter { stream: writer, buf: Vec::with_capacity(256) }),
        })
    }

    fn read_loop<R: Read>(mut stream: R, deliver: DeliverFn, shutdown: Arc<AtomicBool>) {
        // Blocking reads: a read timeout could fire mid-frame and
        // desynchronize the stream under bulk traffic. Shutdown closes
        // the write side, which ends the blocking read with an error.
        let mut ahead = vec![0u8; READ_AHEAD];
        // `ahead[at..filled]` has been read but not yet decoded.
        let (mut at, mut filled) = (0, 0);
        loop {
            while filled - at < 4 {
                ahead.copy_within(at..filled, 0);
                (at, filled) = (0, filled - at);
                match stream.read(&mut ahead[filled..]) {
                    Ok(0) => return,
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            let len = u32::from_le_bytes(ahead[at..at + 4].try_into().expect("4 bytes")) as usize;
            at += 4;
            // The length comes off the socket: never allocate for one
            // no writer of ours could have produced. The stream cannot
            // be resynchronized past it, so the link closes.
            if len > MAX_FRAME_BYTES {
                return;
            }
            // Each body gets its own buffer, which its decoded `Bytes`
            // values go on sharing: what is buffered ahead, then the
            // rest read into spare capacity, never zero-filled.
            let mut body = Vec::with_capacity(len);
            let buffered = len.min(filled - at);
            body.extend_from_slice(&ahead[at..at + buffered]);
            at += buffered;
            let rest = (len - buffered) as u64;
            if rest > 0
                && ((&mut stream).take(rest).read_to_end(&mut body).is_err() || body.len() < len)
            {
                return;
            }
            if let Some((to, update)) = decode_frame(&Bytes::from(body)) {
                deliver(&to, update);
            }
        }
    }

    pub(super) fn send(&self, to: &JunctionId, u: &Update) -> std::io::Result<()> {
        let mut w = self.writer.lock();
        let TcpWriter { stream, buf } = &mut *w;
        buf.clear();
        let payload = encode_frame_header(to, u, buf).map_err(|len| {
            std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("frame body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
            )
        })?;
        write_all_vectored(stream, &mut [IoSlice::new(buf), IoSlice::new(payload)])
    }
}

/// `write_all` over several buffers: one vectored write per attempt,
/// resumed past whatever a partial write took.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    use csaw_core::value::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    use super::*;

    /// A reader handing out its stream 1..=`max` bytes per call.
    struct Chunked {
        stream: Vec<u8>,
        at: usize,
        max: usize,
        rng: StdRng,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let left = self.stream.len() - self.at;
            let n = self.rng.gen_range(1..=self.max).min(left).min(buf.len());
            buf[..n].copy_from_slice(&self.stream[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn frame(to: &JunctionId, u: &Update) -> Vec<u8> {
        let mut out = Vec::new();
        let payload = encode_frame_header(to, u, &mut out).unwrap();
        out.extend_from_slice(payload);
        out
    }

    /// Run the read loop over `stream` cut into reads of 1..=`max`
    /// bytes; return what it delivered, in order.
    fn read_all(stream: Vec<u8>, max: usize, seed: u64) -> Vec<(JunctionId, Update)> {
        let got = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let deliver: DeliverFn = Arc::new(move |to: &JunctionId, u: Update| {
            sink.lock().unwrap().push((*to, u));
        });
        let reader = Chunked { stream, at: 0, max, rng: StdRng::seed_from_u64(seed) };
        TcpLink::read_loop(reader, deliver, Arc::new(AtomicBool::new(false)));
        let got = got.lock().unwrap();
        got.clone()
    }

    /// A seeded mix of every value kind that crosses a link, 64 KiB
    /// payloads among them.
    fn updates(rng: &mut StdRng, n: usize) -> Vec<(JunctionId, Update)> {
        (0..n)
            .map(|i| {
                let mut u = match rng.gen_range(0..9) {
                    0 => Update::assert("Work", "f::j"),
                    1 => Update::retract("Work", "f::j"),
                    2 => Update::data("n", Value::Undef, "f::j"),
                    3 => Update::data("n", Value::Bool(rng.gen()), "f::j"),
                    4 => Update::data("n", Value::Int(rng.next_u64() as i64), "f::j"),
                    5 => Update::data("n", Value::Str("s".repeat(rng.gen_range(0..300))), "f::j"),
                    6 => Update::data(
                        "n",
                        Value::Duration(Duration::from_nanos(rng.next_u64() >> 8)),
                        "f::j",
                    ),
                    7 => Update::data("n", Value::Target("b1::serve".into()), "f::j"),
                    _ => {
                        let len = if rng.gen_bool(0.5) { 64 << 10 } else { rng.gen_range(0..2000) };
                        Update::data("n", Value::from(vec![i as u8; len]), "f::j")
                    }
                };
                u.seq = i as u64;
                (JunctionId::new(format!("b{}", i % 3), "serve"), u)
            })
            .collect()
    }

    #[test]
    fn reader_decodes_frames_at_any_read_boundary() {
        let mut rng = StdRng::seed_from_u64(crate::clock::env_seed(0x7C9));
        for max in [1, 3, 17, 4096, READ_AHEAD - 1, READ_AHEAD + 5, 1 << 20] {
            let sent = updates(&mut rng, 60);
            let stream: Vec<u8> = sent.iter().flat_map(|(to, u)| frame(to, u)).collect();
            assert_eq!(read_all(stream, max, rng.next_u64()), sent, "reads of 1..={max} bytes");
        }
    }

    #[test]
    fn reader_decodes_frames_that_straddle_the_read_ahead() {
        let to = JunctionId::new("g", "serve");
        let small = |len: usize| Update::data("n", Value::from(vec![1; len]), "f::j");
        let overhead = frame(&to, &small(0)).len();
        // A first frame ending 2 bytes short of the read-ahead: the next
        // length prefix, then the next body, straddle its end.
        for short in [2, 1, 0, 5, 40] {
            let sent = vec![
                (to, small(READ_AHEAD - short - overhead)),
                (to, small(100)),
                (to, small(3 * READ_AHEAD)),
                (to, Update::assert("Work", "f::j")),
            ];
            let stream: Vec<u8> = sent.iter().flat_map(|(to, u)| frame(to, u)).collect();
            assert_eq!(read_all(stream, usize::MAX, short as u64), sent, "{short} short");
        }
    }

    #[test]
    fn chunked_reader_stops_at_an_over_cap_length_prefix() {
        let to = JunctionId::new("g", "serve");
        let first = Update::data("n", Value::from(vec![3; 5000]), "f::j");
        let mut stream = frame(&to, &first);
        stream.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        stream.extend(frame(&to, &Update::assert("Late", "f::j")));
        for max in [1, 7, 1 << 20] {
            assert_eq!(read_all(stream.clone(), max, 1), vec![(to, first.clone())]);
        }
    }

    /// A stranger that connects to the listener before the link's own
    /// writer is turned away: the link reads the writer's frames and
    /// none of the stranger's.
    #[test]
    fn link_reads_only_its_own_writer() {
        let (tx, rx) = mpsc::channel();
        let deliver: DeliverFn = Arc::new(move |_to: &JunctionId, u: Update| {
            tx.send(u.key.to_string()).ok();
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let to = JunctionId::new("g", "serve");
        let mut stranger = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stranger.write_all(&frame(&to, &Update::assert("Injected", "x::y"))).unwrap();
        let link = TcpLink::over(listener, deliver, Arc::new(AtomicBool::new(false))).unwrap();
        link.send(&to, &Update::assert("Work", "f::j")).unwrap();
        link.send(&to, &Update::retract("Done", "f::j")).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "Work");
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "Done");
        stranger.write_all(&frame(&to, &Update::assert("Late", "x::y"))).ok();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(200)),
            Err(RecvTimeoutError::Timeout),
            "a stranger's frame was delivered"
        );
    }

    #[test]
    fn reader_closes_the_link_on_an_over_cap_length_prefix() {
        let (tx, rx) = mpsc::channel();
        let deliver: DeliverFn = Arc::new(move |_to: &JunctionId, u: Update| {
            tx.send(u.key.to_string()).ok();
        });
        let link = TcpLink::new(deliver, Arc::new(AtomicBool::new(false))).unwrap();
        let to = JunctionId::new("g", "serve");
        link.send(&to, &Update::assert("Work", "f::j")).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "Work");
        // A length no writer of ours can produce, then a valid frame.
        let over_cap = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        link.writer.lock().stream.write_all(&over_cap).unwrap();
        let _ = link.send(&to, &Update::assert("Late", "f::j"));
        // The reader returned instead of allocating for the length or
        // reading on: its delivery callback — the channel's only sender
        // — is dropped, and nothing after the bad prefix landed.
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Err(RecvTimeoutError::Disconnected));
    }
}
