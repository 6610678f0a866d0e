//! The command protocol: a Redis-like inline syntax with binary-safe
//! encode/decode for shipping commands through junction data.

use csaw_core::value::Bytes;

use crate::store::Store;

/// A client command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `GET key`
    Get(String),
    /// `SET key value`
    Set(String, Vec<u8>),
    /// `DEL key`
    Del(String),
    /// `EXISTS key`
    Exists(String),
    /// `INCR key`
    Incr(String),
    /// `APPEND key value`
    Append(String, Vec<u8>),
    /// `DBSIZE`
    DbSize,
    /// `FLUSH`
    Flush,
}

impl Command {
    /// The command's key, if any (sharding routes on this).
    pub fn key(&self) -> Option<&str> {
        match self {
            Command::Get(k)
            | Command::Set(k, _)
            | Command::Del(k)
            | Command::Exists(k)
            | Command::Incr(k)
            | Command::Append(k, _) => Some(k),
            Command::DbSize | Command::Flush => None,
        }
    }

    /// Whether the command mutates the store (cacheability check).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Command::Set(..) | Command::Del(_) | Command::Incr(_) | Command::Append(..) | Command::Flush
        )
    }

    /// Execute against a store, moving a `SET`'s value into it rather
    /// than copying it.
    pub fn execute_owned(self, store: &mut Store) -> Reply {
        match self {
            Command::Set(k, v) => {
                store.set(&k, v);
                Reply::Ok
            }
            other => other.execute(store),
        }
    }

    /// Execute against a store.
    pub fn execute(&self, store: &mut Store) -> Reply {
        match self {
            Command::Get(k) => match store.get(k) {
                Some(v) => Reply::Bulk(v.to_vec()),
                None => Reply::Nil,
            },
            Command::Set(k, v) => {
                store.set(k, v.clone());
                Reply::Ok
            }
            Command::Del(k) => Reply::Int(i64::from(store.del(k))),
            Command::Exists(k) => Reply::Int(i64::from(store.exists(k))),
            Command::Incr(k) => match store.incr(k) {
                Ok(v) => Reply::Int(v),
                Err(e) => Reply::Error(e),
            },
            Command::Append(k, v) => Reply::Int(store.append(k, v) as i64),
            Command::DbSize => Reply::Int(store.len() as i64),
            Command::Flush => {
                store.flush();
                Reply::Ok
            }
        }
    }

    /// Binary-safe encoding: `verb\nkey-len\nkey\nval-len\nval`.
    pub fn encode(&self) -> Bytes {
        fn frame(verb: &str, key: &str, val: &[u8]) -> Bytes {
            let mut out = Vec::with_capacity(verb.len() + key.len() + val.len() + 16);
            out.extend_from_slice(verb.as_bytes());
            out.push(b'\n');
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(&(val.len() as u32).to_le_bytes());
            out.extend_from_slice(val);
            out.into()
        }
        match self {
            Command::Get(k) => frame("GET", k, b""),
            Command::Set(k, v) => frame("SET", k, v),
            Command::Del(k) => frame("DEL", k, b""),
            Command::Exists(k) => frame("EXISTS", k, b""),
            Command::Incr(k) => frame("INCR", k, b""),
            Command::Append(k, v) => frame("APPEND", k, v),
            Command::DbSize => frame("DBSIZE", "", b""),
            Command::Flush => frame("FLUSH", "", b""),
        }
    }

    /// Decode from [`Command::encode`]'s format.
    pub fn decode(bytes: &[u8]) -> Result<Command, String> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("missing verb terminator")?;
        let verb = std::str::from_utf8(&bytes[..nl]).map_err(|_| "bad verb")?;
        let rest = &bytes[nl + 1..];
        if rest.len() < 4 {
            return Err("truncated key length".into());
        }
        let klen = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if rest.len() < 4 + klen + 4 {
            return Err("truncated key/value".into());
        }
        let key = std::str::from_utf8(&rest[4..4 + klen])
            .map_err(|_| "bad key")?
            .to_string();
        let vstart = 4 + klen;
        let vlen = u32::from_le_bytes(rest[vstart..vstart + 4].try_into().unwrap()) as usize;
        if rest.len() < vstart + 4 + vlen {
            return Err("truncated value".into());
        }
        let val = rest[vstart + 4..vstart + 4 + vlen].to_vec();
        Ok(match verb {
            "GET" => Command::Get(key),
            "SET" => Command::Set(key, val),
            "DEL" => Command::Del(key),
            "EXISTS" => Command::Exists(key),
            "INCR" => Command::Incr(key),
            "APPEND" => Command::Append(key, val),
            "DBSIZE" => Command::DbSize,
            "FLUSH" => Command::Flush,
            other => return Err(format!("unknown verb `{other}`")),
        })
    }
}

/// A server reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `+OK`
    Ok,
    /// Integer reply.
    Int(i64),
    /// Bulk (binary) reply.
    Bulk(Vec<u8>),
    /// Key absent.
    Nil,
    /// Error reply.
    Error(String),
}

impl Reply {
    /// Binary-safe encoding (1 tag byte + payload).
    pub fn encode(&self) -> Bytes {
        let int;
        let (tag, payload): (u8, &[u8]) = match self {
            Reply::Ok => (b'+', b""),
            Reply::Int(i) => {
                int = i.to_le_bytes();
                (b':', &int)
            }
            Reply::Bulk(v) => (b'$', v),
            Reply::Nil => (b'-', b""),
            Reply::Error(e) => (b'!', e.as_bytes()),
        };
        let mut out = Vec::with_capacity(1 + payload.len());
        out.push(tag);
        out.extend_from_slice(payload);
        out.into()
    }

    /// Decode from [`Reply::encode`]'s format.
    pub fn decode(bytes: &[u8]) -> Result<Reply, String> {
        let (&tag, payload) = bytes.split_first().ok_or("empty reply")?;
        Ok(match tag {
            b'+' => Reply::Ok,
            b':' => Reply::Int(i64::from_le_bytes(
                payload.try_into().map_err(|_| "bad int")?,
            )),
            b'$' => Reply::Bulk(payload.to_vec()),
            b'-' => Reply::Nil,
            b'!' => Reply::Error(String::from_utf8_lossy(payload).into_owned()),
            t => return Err(format!("unknown reply tag {t}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_against_store() {
        let mut s = Store::new();
        assert_eq!(Command::Set("a".into(), b"1".to_vec()).execute(&mut s), Reply::Ok);
        assert_eq!(Command::Get("a".into()).execute(&mut s), Reply::Bulk(b"1".to_vec()));
        assert_eq!(Command::Get("zz".into()).execute(&mut s), Reply::Nil);
        assert_eq!(Command::Exists("a".into()).execute(&mut s), Reply::Int(1));
        assert_eq!(Command::Incr("a".into()).execute(&mut s), Reply::Int(2));
        assert_eq!(Command::DbSize.execute(&mut s), Reply::Int(1));
        assert_eq!(Command::Del("a".into()).execute(&mut s), Reply::Int(1));
        assert_eq!(Command::Flush.execute(&mut s), Reply::Ok);
    }

    #[test]
    fn command_round_trips() {
        let cases = vec![
            Command::Get("user:1".into()),
            Command::Set("k".into(), vec![0, 1, 2, 255]),
            Command::Del("d".into()),
            Command::Exists("e".into()),
            Command::Incr("i".into()),
            Command::Append("a".into(), b"tail".to_vec()),
            Command::DbSize,
            Command::Flush,
        ];
        for c in cases {
            assert_eq!(Command::decode(&c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn reply_round_trips() {
        let cases = vec![
            Reply::Ok,
            Reply::Int(-7),
            Reply::Bulk(vec![9; 100]),
            Reply::Nil,
            Reply::Error("oops".into()),
        ];
        for r in cases {
            assert_eq!(Reply::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Command::decode(b"").is_err());
        assert!(Command::decode(b"NOPE\n").is_err());
        assert!(Reply::decode(b"").is_err());
        assert!(Reply::decode(b"?").is_err());
    }

    #[test]
    fn keys_and_writes() {
        assert_eq!(Command::Get("k".into()).key(), Some("k"));
        assert_eq!(Command::DbSize.key(), None);
        assert!(Command::Set("k".into(), vec![]).is_write());
        assert!(!Command::Get("k".into()).is_write());
    }
}
