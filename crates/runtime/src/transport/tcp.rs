//! The TCP link: a real loopback socket pair carrying length-prefixed
//! frames (see [`super::codec`]), one reader thread per link.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use csaw_kv::Update;
use parking_lot::Mutex;

use super::codec::{decode_frame, encode_frame_into, MAX_FRAME_BYTES};
use super::DeliverFn;
use crate::cell::JunctionId;

/// Write half of a TCP link: the stream plus a reusable encode buffer
/// guarded by the same mutex, so frames are encoded straight into a
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
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let writer = TcpStream::connect(addr)?;
        let (reader, _) = listener.accept()?;
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

    fn read_loop(mut stream: TcpStream, deliver: DeliverFn, shutdown: Arc<AtomicBool>) {
        // Blocking reads: a read timeout could fire mid-frame and
        // desynchronize the stream under bulk traffic. Shutdown closes
        // the write side, which ends the blocking read with an error.
        let mut len_buf = [0u8; 4];
        // Body buffer reused across frames (resize keeps capacity).
        let mut body: Vec<u8> = Vec::new();
        loop {
            match stream.read_exact(&mut len_buf) {
                Ok(()) => {}
                Err(_) => return,
            }
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            let len = u32::from_le_bytes(len_buf) as usize;
            // The length comes off the socket: never allocate for one
            // no writer of ours could have produced. The stream cannot
            // be resynchronized past it, so the link closes.
            if len > MAX_FRAME_BYTES {
                return;
            }
            body.clear();
            body.resize(len, 0);
            if stream.read_exact(&mut body).is_err() {
                return;
            }
            if let Some((to, update)) = decode_frame(&body) {
                deliver(&to, update);
            }
        }
    }

    pub(super) fn send(&self, to: &JunctionId, u: &Update) -> std::io::Result<()> {
        let mut w = self.writer.lock();
        let TcpWriter { stream, buf } = &mut *w;
        buf.clear();
        encode_frame_into(to, u, buf).map_err(|len| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("frame body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
            )
        })?;
        stream.write_all(buf)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    use super::*;

    #[test]
    fn reader_closes_the_link_on_an_over_cap_length_prefix() {
        let (tx, rx) = mpsc::channel();
        let deliver: DeliverFn = Arc::new(move |_to: &JunctionId, u: Update| {
            tx.send(u.key).ok();
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
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
