//! The chunked transfer client and its audited state.

use std::time::{Duration, Instant};

use csaw_serial::{decode, encode, CodecConfig, HeapValue, Prim, Registry, TypeDesc};

/// The modelled download link (the testbed stand-in). Time is *spent*
/// (slept) so measured wall-clock durations compose naturally with the
/// real cost of the audit architecture.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// One-way latency per request.
    pub latency: Duration,
    /// Bytes per second.
    pub bandwidth: u64,
    /// Chunk size (progress/audit granularity).
    pub chunk: usize,
}

impl LinkModel {
    /// A 1GbE-like link, time-compressed for benchmarking: same
    /// latency/bandwidth *ratio* as the paper's testbed, scaled so a
    /// 10MB transfer takes ~10ms of wall clock.
    pub fn gigabit_scaled() -> LinkModel {
        LinkModel {
            latency: Duration::from_micros(200),
            bandwidth: 1_000_000_000, // modelled bytes per second
            chunk: 256 * 1024,
        }
    }

    /// Pure-model transfer time for a size (no sleeping).
    pub fn model_time(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth as f64)
    }
}

/// The audited program state: what the snapshot architecture captures
/// and ships to the remote logger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferState {
    /// Requested URL.
    pub url: String,
    /// Total bytes to download.
    pub total: u64,
    /// Bytes downloaded so far.
    pub done: u64,
    /// Rolling checksum of the received data (integrity evidence).
    pub checksum: u64,
    /// Invocation counter.
    pub invocation: u64,
}

impl TransferState {
    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.register(
            "transfer_state",
            TypeDesc::strct(
                "transfer_state",
                vec![
                    ("url", TypeDesc::CString { max_len: 2048 }),
                    ("total", TypeDesc::Prim(Prim::U64)),
                    ("done", TypeDesc::Prim(Prim::U64)),
                    ("checksum", TypeDesc::Prim(Prim::U64)),
                    ("invocation", TypeDesc::Prim(Prim::U64)),
                ],
            ),
        );
        reg
    }

    /// Serialize through csaw-serial.
    pub fn to_bytes(&self) -> Result<Vec<u8>, String> {
        let v = HeapValue::Struct(vec![
            HeapValue::CString(self.url.clone()),
            HeapValue::UInt(self.total),
            HeapValue::UInt(self.done),
            HeapValue::UInt(self.checksum),
            HeapValue::UInt(self.invocation),
        ]);
        encode(
            &v,
            &TypeDesc::Named("transfer_state".into()),
            &Self::registry(),
            &CodecConfig::default(),
        )
        .map_err(|e| e.to_string())
    }

    /// Deserialize.
    pub fn from_bytes(bytes: &[u8]) -> Result<TransferState, String> {
        let v = decode(
            bytes,
            &TypeDesc::Named("transfer_state".into()),
            &Self::registry(),
            &CodecConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let HeapValue::Struct(f) = &v else {
            return Err("bad transfer state".into());
        };
        let (HeapValue::CString(url), HeapValue::UInt(total), HeapValue::UInt(done),
             HeapValue::UInt(checksum), HeapValue::UInt(invocation)) =
            (&f[0], &f[1], &f[2], &f[3], &f[4])
        else {
            return Err("bad transfer state fields".into());
        };
        Ok(TransferState {
            url: url.clone(),
            total: *total,
            done: *done,
            checksum: *checksum,
            invocation: *invocation,
        })
    }
}

/// The download client.
pub struct Client {
    link: LinkModel,
    /// Current transfer state.
    pub state: TransferState,
}

impl Client {
    /// New client over a link.
    pub fn new(link: LinkModel) -> Client {
        Client {
            link,
            state: TransferState {
                url: String::new(),
                total: 0,
                done: 0,
                checksum: 0,
                invocation: 0,
            },
        }
    }

    /// Download `size` bytes from `url`, invoking `on_chunk` after each
    /// chunk (where the continuous-audit architecture hooks in). Returns
    /// the elapsed wall-clock time.
    pub fn download(
        &mut self,
        url: &str,
        size: u64,
        mut on_chunk: impl FnMut(&TransferState),
    ) -> Duration {
        let t0 = Instant::now();
        self.state = TransferState {
            url: url.to_string(),
            total: size,
            done: 0,
            checksum: 5381,
            invocation: self.state.invocation + 1,
        };
        spin_sleep(self.link.latency);
        let mut remaining = size;
        while remaining > 0 {
            let chunk = remaining.min(self.link.chunk as u64);
            spin_sleep(Duration::from_secs_f64(
                chunk as f64 / self.link.bandwidth as f64,
            ));
            self.state.done += chunk;
            // Model a rolling checksum over the received bytes.
            self.state.checksum = self
                .state
                .checksum
                .wrapping_mul(33)
                .wrapping_add(chunk);
            remaining -= chunk;
            on_chunk(&self.state);
        }
        t0.elapsed()
    }

    /// The link model.
    pub fn link(&self) -> LinkModel {
        self.link
    }
}

/// Sleep that stays accurate for sub-millisecond durations (OS sleep
/// granularity would otherwise dominate the small-file measurements).
fn spin_sleep(d: Duration) {
    if d >= Duration::from_millis(2) {
        std::thread::sleep(d);
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_round_trips() {
        let s = TransferState {
            url: "http://files.example/10mb.bin".into(),
            total: 10 << 20,
            done: 4 << 20,
            checksum: 12345,
            invocation: 3,
        };
        assert_eq!(TransferState::from_bytes(&s.to_bytes().unwrap()).unwrap(), s);
    }

    #[test]
    fn download_completes_and_reports_progress() {
        let mut c = Client::new(LinkModel {
            latency: Duration::ZERO,
            bandwidth: 1 << 30,
            chunk: 1024,
        });
        let mut chunks = 0;
        let elapsed = c.download("u", 10 * 1024, |st| {
            chunks += 1;
            assert!(st.done <= st.total);
        });
        assert_eq!(chunks, 10);
        assert_eq!(c.state.done, 10 * 1024);
        assert_eq!(c.state.invocation, 1);
        assert!(elapsed < Duration::from_secs(1));
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let link = LinkModel {
            latency: Duration::ZERO,
            bandwidth: 100 << 20, // 100 MB/s
            chunk: 64 * 1024,
        };
        let mut c = Client::new(link);
        let small = c.download("u", 100 * 1024, |_| {});
        let big = c.download("u", 4 << 20, |_| {});
        assert!(
            big > small * 5,
            "big {big:?} should dwarf small {small:?}"
        );
    }

    #[test]
    fn model_time_matches_shape() {
        let link = LinkModel::gigabit_scaled();
        let t1 = link.model_time(1 << 20);
        let t2 = link.model_time(100 << 20);
        assert!(t2 > t1 * 50);
    }

    #[test]
    fn invocation_counter_advances() {
        let mut c = Client::new(LinkModel {
            latency: Duration::ZERO,
            bandwidth: 1 << 30,
            chunk: 4096,
        });
        c.download("a", 1, |_| {});
        c.download("b", 1, |_| {});
        assert_eq!(c.state.invocation, 2);
    }
}
