//! The three ways into the stack, each as a [`Port`] that takes a round
//! of commands and returns what the stack answered with how long each
//! answer took. The closed loops of the measured runs and the stages
//! of the ledger pass both drive ports, so they exercise identical
//! client code.

use std::future::Future;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::pin::Pin;
use std::time::{Duration, Instant};

use lf_async::{Error, Response, Service};
use lf_sched::rt;
use lf_server::resp::{self, Reply};

use crate::gen::{value, Bytes, Cmd, Fail, KeyTable, Kind, Outcome};
use crate::spec::SCAN_COUNT;
use crate::tier::{apply, Direct, Tier};

/// One entrance to the stack, used by one thread.
pub trait Port {
    /// Send `cmds` together and wait for every answer. Appends one
    /// outcome per command to `out` and latency samples (ns) to `lat`:
    /// one per command on the wire and async fronts, one per round
    /// (mean call time) on the direct front.
    fn round(&mut self, cmds: &[Cmd], out: &mut Vec<Outcome>, lat: &mut Vec<f32>)
        -> io::Result<()>;
}

/// A RESP connection to `lf-server`.
pub struct WirePort<'k> {
    stream: TcpStream,
    keys: &'k KeyTable,
    send: Vec<u8>,
    recv: Vec<u8>,
    chunk: Box<[u8; 64 * 1024]>,
    /// Bytes of replies received since the connection was made.
    pub bytes_in: u64,
}

impl<'k> WirePort<'k> {
    /// Connect and complete one `PING`, so the server's connection
    /// thread exists before anything is timed.
    pub fn connect(addr: SocketAddr, keys: &'k KeyTable) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stack that stops answering fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        let mut port = WirePort {
            stream,
            keys,
            send: Vec::with_capacity(8 * 1024),
            recv: Vec::with_capacity(64 * 1024),
            chunk: Box::new([0; 64 * 1024]),
            bytes_in: 0,
        };
        port.send.extend_from_slice(b"*1\r\n$4\r\nPING\r\n");
        port.stream.write_all(&port.send)?;
        let mut seen = 0;
        match port.next_reply(&mut seen)? {
            Reply::Simple(s) if s == b"PONG" => {
                port.bytes_in = 0;
                Ok(port)
            }
            other => Err(io::Error::other(format!("PING answered {other:?}"))),
        }
    }

    /// Encode `cmds` as the server will receive them.
    pub fn encode(cmds: &[Cmd], keys: &KeyTable, buf: &mut Vec<u8>) {
        for c in cmds {
            let key = keys.get(c.key).as_slice();
            match c.kind {
                Kind::Get => resp::write_command(buf, &[b"GET", key]),
                Kind::Set => resp::write_command(buf, &[b"SET", key, &value(c.key, c.ver)]),
                Kind::Del => resp::write_command(buf, &[b"DEL", key]),
                Kind::Scan => {
                    let cursor = resp::hex_encode(key);
                    let count = SCAN_COUNT.to_string();
                    resp::write_command(
                        buf,
                        &[b"SCAN", cursor.as_bytes(), b"COUNT", count.as_bytes()],
                    );
                }
            }
        }
    }

    /// The next reply, reading more from the socket as needed. `seen`
    /// is the offset into `recv` already consumed this round.
    fn next_reply(&mut self, seen: &mut usize) -> io::Result<Reply> {
        loop {
            match resp::parse_reply(&self.recv[*seen..]).map_err(io::Error::other)? {
                Some((reply, used)) => {
                    *seen += used;
                    return Ok(reply);
                }
                None => {
                    let n = self.stream.read(&mut self.chunk[..])?;
                    if n == 0 {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    self.bytes_in += n as u64;
                    self.recv.extend_from_slice(&self.chunk[..n]);
                }
            }
        }
    }
}

/// A reply in the harness's common shape; a reply of the wrong type is
/// an error.
pub fn outcome_of_reply(kind: Kind, reply: Reply) -> Outcome {
    match (kind, reply) {
        (_, Reply::Error(msg)) if msg.starts_with(b"BUSY") => Outcome::Failed(Fail::Busy),
        (Kind::Get, Reply::Bulk(v)) => Outcome::Value(v),
        (Kind::Set, Reply::Simple(s)) if s == b"OK" => Outcome::Stored(true),
        (Kind::Del, Reply::Int(n @ 0..=1)) => Outcome::Removed {
            hit: n == 1,
            value: None,
        },
        (Kind::Scan, Reply::Array(parts)) => {
            scan_page(parts).unwrap_or(Outcome::Failed(Fail::Error))
        }
        _ => Outcome::Failed(Fail::Error),
    }
}

fn scan_page(parts: Vec<Reply>) -> Option<Outcome> {
    let [Reply::Bulk(Some(cursor)), Reply::Array(items)] = <[Reply; 2]>::try_from(parts).ok()?
    else {
        return None;
    };
    let keys = items
        .into_iter()
        .map(|r| match r {
            Reply::Bulk(Some(k)) => Some(k),
            _ => None,
        })
        .collect::<Option<Vec<Bytes>>>()?;
    let cursor = match cursor.as_slice() {
        b"0" => None,
        hex => Some(resp::hex_decode(hex)?),
    };
    Some(Outcome::Page {
        keys,
        cursor: Some(cursor),
    })
}

impl Port for WirePort<'_> {
    fn round(
        &mut self,
        cmds: &[Cmd],
        out: &mut Vec<Outcome>,
        lat: &mut Vec<f32>,
    ) -> io::Result<()> {
        self.send.clear();
        self.recv.clear();
        Self::encode(cmds, self.keys, &mut self.send);
        let sent = Instant::now();
        self.stream.write_all(&self.send)?;
        let mut seen = 0;
        for c in cmds {
            let reply = self.next_reply(&mut seen)?;
            lat.push(sent.elapsed().as_nanos() as f32);
            out.push(outcome_of_reply(c.kind, reply));
        }
        Ok(())
    }
}

/// Futures on an `lf-async` service, `cmds.len()` in flight at once.
pub struct AsyncPort<'a, T: Tier> {
    pub service: &'a Service<T>,
    pub keys: &'a KeyTable,
}

type Answer = (Outcome, f32);

pub fn outcome_of_response(kind: Kind, resp: Result<Response<Bytes>, Error>) -> Outcome {
    match (kind, resp) {
        (_, Err(Error::Shed | Error::Rejected)) => Outcome::Failed(Fail::Busy),
        (Kind::Get, Ok(Response::Value(v))) => Outcome::Value(v),
        (Kind::Set, Ok(Response::Inserted(stored))) => Outcome::Stored(stored),
        (Kind::Del, Ok(Response::Removed(value))) => Outcome::Removed {
            hit: value.is_some(),
            value,
        },
        _ => Outcome::Failed(Fail::Error),
    }
}

pub fn outcome_of_page(page: Result<Vec<(Bytes, Bytes)>, Error>) -> Outcome {
    match page {
        Ok(pairs) => Outcome::Page {
            keys: pairs.into_iter().map(|(k, _)| k).collect(),
            cursor: None,
        },
        Err(Error::Shed | Error::Rejected) => Outcome::Failed(Fail::Busy),
        Err(Error::Shutdown) => Outcome::Failed(Fail::Error),
    }
}

/// Await `fut`, timing from now (its submission) to its resolution.
async fn timed<F: Future>(fut: F, finish: impl FnOnce(F::Output) -> Outcome) -> Answer {
    let submitted = Instant::now();
    let resolved = fut.await;
    let ns = submitted.elapsed().as_nanos() as f32;
    (finish(resolved), ns)
}

impl<T: Tier> AsyncPort<'_, T> {
    fn submit(&self, c: Cmd) -> Pin<Box<dyn Future<Output = Answer> + Send>> {
        let key = self.keys.get(c.key).clone();
        let kind = c.kind;
        let finish = move |r| outcome_of_response(kind, r);
        match kind {
            Kind::Get => Box::pin(timed(self.service.get(key), finish)),
            Kind::Set => Box::pin(timed(self.service.upsert(key, value(c.key, c.ver)), finish)),
            Kind::Del => Box::pin(timed(self.service.remove(key), finish)),
            Kind::Scan => Box::pin(timed(
                self.service.scan(Some(key), SCAN_COUNT),
                outcome_of_page,
            )),
        }
    }
}

impl<T: Tier> Port for AsyncPort<'_, T> {
    fn round(
        &mut self,
        cmds: &[Cmd],
        out: &mut Vec<Outcome>,
        lat: &mut Vec<f32>,
    ) -> io::Result<()> {
        let window = cmds.iter().map(|&c| self.submit(c)).collect();
        for (outcome, ns) in rt::run_all(window) {
            out.push(outcome);
            lat.push(ns);
        }
        Ok(())
    }
}

/// Calls on a per-thread handle, timed as one group.
pub struct DirectPort<'a, H: Direct> {
    pub handle: H,
    pub keys: &'a KeyTable,
}

impl<H: Direct> Port for DirectPort<'_, H> {
    fn round(
        &mut self,
        cmds: &[Cmd],
        out: &mut Vec<Outcome>,
        lat: &mut Vec<f32>,
    ) -> io::Result<()> {
        let start = Instant::now();
        for &c in cmds {
            out.push(apply(&self.handle, c, self.keys));
        }
        lat.push(start.elapsed().as_nanos() as f32 / cmds.len().max(1) as f32);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_map_to_outcomes_by_command_kind() {
        let bulk = |s: &[u8]| Reply::Bulk(Some(s.to_vec()));
        assert_eq!(
            outcome_of_reply(Kind::Get, Reply::Bulk(None)),
            Outcome::Value(None)
        );
        assert_eq!(
            outcome_of_reply(Kind::Set, Reply::Simple(b"OK".to_vec())),
            Outcome::Stored(true)
        );
        assert_eq!(
            outcome_of_reply(Kind::Del, Reply::Int(1)),
            Outcome::Removed {
                hit: true,
                value: None
            }
        );
        // A reply of another command's type is an error, not a match.
        assert_eq!(
            outcome_of_reply(Kind::Get, Reply::Int(1)),
            Outcome::Failed(Fail::Error)
        );
        assert_eq!(
            outcome_of_reply(Kind::Del, Reply::Int(2)),
            Outcome::Failed(Fail::Error)
        );
        assert_eq!(
            outcome_of_reply(Kind::Get, Reply::Error(b"BUSY shed".to_vec())),
            Outcome::Failed(Fail::Busy)
        );
        assert_eq!(
            outcome_of_reply(Kind::Get, Reply::Error(b"ERR x".to_vec())),
            Outcome::Failed(Fail::Error)
        );
        let page = Reply::Array(vec![
            bulk(b"3031"),
            Reply::Array(vec![bulk(b"00"), bulk(b"01")]),
        ]);
        assert_eq!(
            outcome_of_reply(Kind::Scan, page),
            Outcome::Page {
                keys: vec![b"00".to_vec(), b"01".to_vec()],
                cursor: Some(Some(b"01".to_vec()))
            }
        );
        let done = Reply::Array(vec![bulk(b"0"), Reply::Array(vec![])]);
        assert_eq!(
            outcome_of_reply(Kind::Scan, done),
            Outcome::Page {
                keys: vec![],
                cursor: Some(None)
            }
        );
        let torn = Reply::Array(vec![bulk(b"0")]);
        assert_eq!(
            outcome_of_reply(Kind::Scan, torn),
            Outcome::Failed(Fail::Error)
        );
    }
}
