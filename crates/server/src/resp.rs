//! RESP2 codec: incremental command parsing (server side), reply
//! parsing (client side), and serializers for both directions.
//!
//! The parser is *incremental over a byte buffer*: callers accumulate
//! socket reads into a growable buffer and repeatedly call
//! [`parse_command`] (or [`parse_reply`]), which either returns a
//! complete frame plus the number of bytes it consumed, `None` when the
//! buffer holds only a frame prefix (read more), or a
//! [`ProtocolError`] for input that can never become a valid frame —
//! oversized headers, negative lengths, non-numeric integers. Errors
//! are values, never panics: a malformed peer costs one connection, not
//! the process.
//!
//! Both the server's connection loop and `lf-bench`'s TCP client speak
//! through this module, so a codec bug cannot hide as a matched
//! pair of mistakes.

use std::fmt;

/// Maximum elements in one command array (`*N`). Redis allows more; we
/// bound it so a hostile header cannot make the server reserve
/// unbounded memory before any payload arrives.
pub const MAX_ARGS: usize = 4096;
/// Maximum bytes in one bulk string (`$N`).
pub const MAX_BULK: usize = 16 << 20;
/// Maximum bytes an inline command may span before its CRLF.
pub const MAX_INLINE: usize = 64 << 10;
/// Maximum reply-array nesting the client-side parser accepts
/// (commands here never need more than cursor + key page = 2).
pub const MAX_REPLY_DEPTH: usize = 4;

/// Input that can never become a valid RESP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ProtocolError> {
    Err(ProtocolError(msg.into()))
}

/// Result of an incremental parse: the parsed value plus bytes
/// consumed, `Ok(None)` while the buffer holds only a prefix, `Err`
/// for input no suffix can repair.
pub type Parsed<T> = Result<Option<(T, usize)>, ProtocolError>;

/// Byte offset of the first CRLF at or after `from`, or `None`.
fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 1 < buf.len() {
        if buf[i] == b'\r' && buf[i + 1] == b'\n' {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Parse the ASCII integer between a type byte and its CRLF.
fn parse_int(bytes: &[u8]) -> Result<i64, ProtocolError> {
    if bytes.is_empty() {
        return err("empty integer");
    }
    let (neg, digits) = match bytes[0] {
        b'-' => (true, &bytes[1..]),
        _ => (false, bytes),
    };
    if digits.is_empty() || digits.len() > 19 {
        return err("invalid integer");
    }
    let mut v: i64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return err("invalid integer");
        }
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add((b - b'0') as i64))
            .ok_or_else(|| ProtocolError("integer overflow".into()))?;
    }
    Ok(if neg { -v } else { v })
}

/// Try to parse one client command from the front of `buf`.
///
/// Returns `Ok(Some((args, consumed)))` for a complete command (array
/// of bulk strings, or an inline command split on whitespace — an
/// empty inline line yields an empty `args` the caller should skip),
/// `Ok(None)` when `buf` holds only a prefix, and `Err` for input no
/// suffix can repair.
pub fn parse_command(buf: &[u8]) -> Parsed<Vec<Vec<u8>>> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != b'*' {
        // Inline command (what `redis-cli` sends for a bare line, and
        // what a human types into `nc`).
        let Some(end) = find_crlf(buf, 0) else {
            if buf.len() > MAX_INLINE {
                return err("too big inline request");
            }
            return Ok(None);
        };
        if end > MAX_INLINE {
            return err("too big inline request");
        }
        let args = buf[..end]
            .split(|b| b.is_ascii_whitespace())
            .filter(|w| !w.is_empty())
            .map(<[u8]>::to_vec)
            .collect();
        return Ok(Some((args, end + 2)));
    }
    let Some(hdr_end) = find_crlf(buf, 1) else {
        if buf.len() > 32 {
            return err("invalid multibulk length");
        }
        return Ok(None);
    };
    let n = parse_int(&buf[1..hdr_end])?;
    if n < 0 || n as usize > MAX_ARGS {
        return err("invalid multibulk length");
    }
    let mut pos = hdr_end + 2;
    let mut args = Vec::with_capacity((n as usize).min(64));
    for _ in 0..n {
        if pos >= buf.len() {
            return Ok(None);
        }
        if buf[pos] != b'$' {
            return err(format!(
                "expected '$', got '{}'",
                char::from(buf[pos]).escape_default()
            ));
        }
        let Some(len_end) = find_crlf(buf, pos + 1) else {
            if buf.len() - pos > 32 {
                return err("invalid bulk length");
            }
            return Ok(None);
        };
        let len = parse_int(&buf[pos + 1..len_end])?;
        if len < 0 || len as usize > MAX_BULK {
            return err("invalid bulk length");
        }
        let (start, end) = (len_end + 2, len_end + 2 + len as usize);
        if buf.len() < end + 2 {
            return Ok(None);
        }
        if &buf[end..end + 2] != b"\r\n" {
            return err("bulk string missing CRLF terminator");
        }
        args.push(buf[start..end].to_vec());
        pos = end + 2;
    }
    Ok(Some((args, pos)))
}

/// One server reply, as the client-side parser sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+...` simple string.
    Simple(Vec<u8>),
    /// `-...` error string.
    Error(Vec<u8>),
    /// `:N` integer.
    Int(i64),
    /// `$N` bulk string; `None` is the null bulk (`$-1`).
    Bulk(Option<Vec<u8>>),
    /// `*N` array of nested replies.
    Array(Vec<Reply>),
}

/// Try to parse one reply from the front of `buf` (client side).
/// Same contract as [`parse_command`].
pub fn parse_reply(buf: &[u8]) -> Parsed<Reply> {
    parse_reply_at(buf, 0, 0)
}

fn parse_reply_at(buf: &[u8], pos: usize, depth: usize) -> Parsed<Reply> {
    if depth > MAX_REPLY_DEPTH {
        return err("reply nesting too deep");
    }
    if pos >= buf.len() {
        return Ok(None);
    }
    let ty = buf[pos];
    let Some(line_end) = find_crlf(buf, pos + 1) else {
        if matches!(ty, b':' | b'*' | b'$') && buf.len() - pos > 32 {
            return err("reply header too long");
        }
        if matches!(ty, b'+' | b'-') && buf.len() - pos > MAX_INLINE {
            return err("reply line too long");
        }
        return Ok(None);
    };
    let line = &buf[pos + 1..line_end];
    let after = line_end + 2;
    match ty {
        b'+' => Ok(Some((Reply::Simple(line.to_vec()), after))),
        b'-' => Ok(Some((Reply::Error(line.to_vec()), after))),
        b':' => Ok(Some((Reply::Int(parse_int(line)?), after))),
        b'$' => {
            let len = parse_int(line)?;
            if len == -1 {
                return Ok(Some((Reply::Bulk(None), after)));
            }
            if len < 0 || len as usize > MAX_BULK {
                return err("invalid bulk length");
            }
            let end = after + len as usize;
            if buf.len() < end + 2 {
                return Ok(None);
            }
            if &buf[end..end + 2] != b"\r\n" {
                return err("bulk string missing CRLF terminator");
            }
            Ok(Some((Reply::Bulk(Some(buf[after..end].to_vec())), end + 2)))
        }
        b'*' => {
            let n = parse_int(line)?;
            if n < 0 || n as usize > MAX_ARGS {
                return err("invalid multibulk length");
            }
            let mut items = Vec::with_capacity((n as usize).min(64));
            let mut cur = after;
            for _ in 0..n {
                match parse_reply_at(buf, cur, depth + 1)? {
                    Some((item, next)) => {
                        items.push(item);
                        cur = next;
                    }
                    None => return Ok(None),
                }
            }
            Ok(Some((Reply::Array(items), cur)))
        }
        other => err(format!(
            "unknown reply type '{}'",
            char::from(other).escape_default()
        )),
    }
}

/// Append `+s\r\n`.
pub fn write_simple(out: &mut Vec<u8>, s: &str) {
    out.push(b'+');
    out.extend_from_slice(s.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Append `-s\r\n`.
pub fn write_error(out: &mut Vec<u8>, s: &str) {
    out.push(b'-');
    out.extend_from_slice(s.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Append the decimal digits of `v`, written backwards into a stack
/// buffer: a length or integer costs no allocation, which is what lets
/// a SCAN visitor encode keys on the lane worker without touching the
/// heap per key.
fn write_decimal(out: &mut Vec<u8>, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// Append `:v\r\n`.
pub fn write_int(out: &mut Vec<u8>, v: i64) {
    out.push(b':');
    if v < 0 {
        out.push(b'-');
    }
    write_decimal(out, v.unsigned_abs());
    out.extend_from_slice(b"\r\n");
}

/// Append a bulk string `$len\r\n…\r\n`.
pub fn write_bulk(out: &mut Vec<u8>, b: &[u8]) {
    out.push(b'$');
    write_decimal(out, b.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(b);
    out.extend_from_slice(b"\r\n");
}

/// Append the null bulk `$-1\r\n`.
pub fn write_null(out: &mut Vec<u8>) {
    out.extend_from_slice(b"$-1\r\n");
}

/// Append an array header `*n\r\n` (elements follow).
pub fn write_array_header(out: &mut Vec<u8>, n: usize) {
    out.push(b'*');
    write_decimal(out, n as u64);
    out.extend_from_slice(b"\r\n");
}

/// Encode a full command (array of bulk strings) — the client's send
/// path.
pub fn write_command(out: &mut Vec<u8>, args: &[&[u8]]) {
    write_array_header(out, args.len());
    for a in args {
        write_bulk(out, a);
    }
}

/// Append the lowercase hex of `bytes`, two nibble-table lookups per
/// byte.
fn write_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(NIBBLES[(b >> 4) as usize]);
        out.push(NIBBLES[(b & 0xf) as usize]);
    }
}

/// Append `hex_encode(bytes)` as a bulk string, without building the
/// `String` (the SCAN reply's cursor).
pub fn write_bulk_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    out.push(b'$');
    write_decimal(out, bytes.len() as u64 * 2);
    out.extend_from_slice(b"\r\n");
    write_hex(out, bytes);
    out.extend_from_slice(b"\r\n");
}

/// Lowercase-hex encode (SCAN cursors: opaque, shell-safe, order-free).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut hex = Vec::new();
    write_hex(&mut hex, bytes);
    String::from_utf8(hex).expect("hex digits are ASCII")
}

/// Decode a lowercase/uppercase-hex string produced by [`hex_encode`].
pub fn hex_decode(s: &[u8]) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nib = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    s.chunks(2)
        .map(|p| Some(nib(p[0])? << 4 | nib(p[1])?))
        .collect()
}

/// A parsed, validated command — the server's dispatch unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `PING [msg]` → `+PONG` or the echoed bulk.
    Ping(Option<Vec<u8>>),
    /// `GET key` → bulk value or null.
    Get(Vec<u8>),
    /// `SET key value` → `+OK` (upsert).
    Set(Vec<u8>, Vec<u8>),
    /// `DEL key [key …]` → `:removed`.
    Del(Vec<Vec<u8>>),
    /// `EXISTS key [key …]` → `:present`.
    Exists(Vec<Vec<u8>>),
    /// `MGET key [key …]` → array of bulk-or-null.
    MGet(Vec<Vec<u8>>),
    /// `SCAN cursor [COUNT n]` → `[next-cursor, [key …]]`. The cursor
    /// is `0` to start and hex-of-last-key to continue; `0` comes back
    /// when the keyspace is exhausted.
    Scan {
        /// Resume strictly after this key (`None` = from the start).
        after: Option<Vec<u8>>,
        /// Page size hint (`COUNT`), default 10 as in Redis.
        count: usize,
    },
    /// `INFO` → bulk with server and service counters.
    Info,
    /// `QUIT` → `+OK`, then the server closes the connection.
    Quit,
    /// `SHUTDOWN` → `+OK` and a server-wide stop, when the builder
    /// allowed it (test harnesses); `-ERR` otherwise.
    Shutdown,
}

impl Command {
    /// Validate an argument vector into a command, or a ready-to-send
    /// RESP error message (without the leading `-`).
    pub fn parse(mut args: Vec<Vec<u8>>) -> Result<Command, String> {
        if args.is_empty() {
            return Err("ERR empty command".into());
        }
        let name = args[0].to_ascii_uppercase();
        let arity = |want: std::ops::RangeInclusive<usize>, name: &str| {
            if want.contains(&(args.len() - 1)) {
                Ok(())
            } else {
                Err(format!(
                    "ERR wrong number of arguments for '{name}' command"
                ))
            }
        };
        match name.as_slice() {
            b"PING" => {
                arity(0..=1, "ping")?;
                let msg = if args.len() == 2 {
                    Some(args.swap_remove(1))
                } else {
                    None
                };
                Ok(Command::Ping(msg))
            }
            b"GET" => {
                arity(1..=1, "get")?;
                Ok(Command::Get(args.swap_remove(1)))
            }
            b"SET" => {
                arity(2..=2, "set")?;
                let value = args.swap_remove(2);
                let key = args.swap_remove(1);
                Ok(Command::Set(key, value))
            }
            b"DEL" => {
                arity(1..=usize::MAX, "del")?;
                Ok(Command::Del(args.split_off(1)))
            }
            b"EXISTS" => {
                arity(1..=usize::MAX, "exists")?;
                Ok(Command::Exists(args.split_off(1)))
            }
            b"MGET" => {
                arity(1..=usize::MAX, "mget")?;
                Ok(Command::MGet(args.split_off(1)))
            }
            b"SCAN" => {
                arity(1..=3, "scan")?;
                let after = match args[1].as_slice() {
                    b"0" => None,
                    hex => Some(hex_decode(hex).ok_or("ERR invalid cursor")?),
                };
                let count = match args.len() {
                    2 => 10,
                    4 if args[2].eq_ignore_ascii_case(b"COUNT") => {
                        let n: usize = std::str::from_utf8(&args[3])
                            .ok()
                            .and_then(|s| s.parse().ok())
                            .ok_or("ERR value is not an integer or out of range")?;
                        if n == 0 || n > MAX_ARGS {
                            return Err("ERR COUNT out of range".into());
                        }
                        n
                    }
                    _ => return Err("ERR syntax error".into()),
                };
                Ok(Command::Scan { after, count })
            }
            b"INFO" => Ok(Command::Info),
            b"QUIT" => Ok(Command::Quit),
            b"SHUTDOWN" => Ok(Command::Shutdown),
            other => Err(format!(
                "ERR unknown command '{}'",
                String::from_utf8_lossy(other).escape_default()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_command_roundtrip() {
        let mut buf = Vec::new();
        write_command(&mut buf, &[b"SET", b"k", b"v1"]);
        let (args, used) = parse_command(&buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(args, vec![b"SET".to_vec(), b"k".to_vec(), b"v1".to_vec()]);
    }

    #[test]
    fn split_reads_return_none_until_complete() {
        let mut buf = Vec::new();
        write_command(&mut buf, &[b"GET", b"somekey"]);
        for cut in 0..buf.len() {
            assert_eq!(parse_command(&buf[..cut]).unwrap(), None, "cut={cut}");
        }
        assert!(parse_command(&buf).unwrap().is_some());
    }

    #[test]
    fn inline_commands_parse() {
        let (args, used) = parse_command(b"PING\r\n").unwrap().unwrap();
        assert_eq!(args, vec![b"PING".to_vec()]);
        assert_eq!(used, 6);
        let (args, _) = parse_command(b"  GET   k1 \r\ntrailing").unwrap().unwrap();
        assert_eq!(args, vec![b"GET".to_vec(), b"k1".to_vec()]);
    }

    #[test]
    fn malformed_input_errors_not_panics() {
        assert!(parse_command(b"*2\r\n$3\r\nGET\r\n:5\r\n").is_err()); // int where bulk expected
        assert!(parse_command(b"*-3\r\n").is_err());
        assert!(parse_command(b"*1\r\n$-5\r\n").is_err());
        assert!(parse_command(b"*abc\r\n").is_err());
        assert!(parse_command(format!("*1\r\n${}\r\n", MAX_BULK + 1).as_bytes()).is_err());
        let long_header = [b"*".as_slice(), &[b'9'; 40]].concat();
        assert!(parse_command(&long_header).is_err());
    }

    #[test]
    fn reply_roundtrip() {
        let mut buf = Vec::new();
        write_simple(&mut buf, "OK");
        write_error(&mut buf, "BUSY shed");
        write_int(&mut buf, -7);
        write_null(&mut buf);
        write_array_header(&mut buf, 2);
        write_bulk(&mut buf, b"0");
        write_array_header(&mut buf, 1);
        write_bulk(&mut buf, b"k");
        let mut pos = 0;
        let mut replies = Vec::new();
        while let Some((r, next)) = parse_reply(&buf[pos..]).unwrap() {
            replies.push(r);
            pos += next;
        }
        assert_eq!(pos, buf.len());
        assert_eq!(
            replies,
            vec![
                Reply::Simple(b"OK".to_vec()),
                Reply::Error(b"BUSY shed".to_vec()),
                Reply::Int(-7),
                Reply::Bulk(None),
                Reply::Array(vec![
                    Reply::Bulk(Some(b"0".to_vec())),
                    Reply::Array(vec![Reply::Bulk(Some(b"k".to_vec()))]),
                ]),
            ]
        );
    }

    #[test]
    fn numbers_and_hex_match_the_formatting_machinery() {
        for v in [0i64, 9, 10, -1, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            write_int(&mut buf, v);
            assert_eq!(buf, format!(":{v}\r\n").into_bytes());
        }
        for n in [0usize, 9, 10, usize::MAX] {
            let mut buf = Vec::new();
            write_array_header(&mut buf, n);
            assert_eq!(buf, format!("*{n}\r\n").into_bytes());
        }
        let mut buf = Vec::new();
        write_bulk(&mut buf, b"");
        write_bulk(&mut buf, b"0123456789");
        assert_eq!(buf, b"$0\r\n\r\n$10\r\n0123456789\r\n");
        assert_eq!(hex_encode(b""), "");
        let every_byte: Vec<u8> = (0..=255).collect();
        let want: String = every_byte.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_encode(&every_byte), want);
        let (mut spliced, mut via_string) = (Vec::new(), Vec::new());
        write_bulk_hex(&mut spliced, &every_byte);
        write_bulk(&mut via_string, want.as_bytes());
        assert_eq!(spliced, via_string);
    }

    #[test]
    fn hex_cursor_roundtrip() {
        let key = b"\x00weird\xffkey".to_vec();
        assert_eq!(hex_decode(hex_encode(&key).as_bytes()), Some(key));
        assert_eq!(hex_decode(b"zz"), None);
        assert_eq!(hex_decode(b"abc"), None);
    }

    #[test]
    fn command_validation() {
        let cmd = |s: &[&[u8]]| Command::parse(s.iter().map(|a| a.to_vec()).collect());
        assert_eq!(cmd(&[b"get", b"k"]).unwrap(), Command::Get(b"k".to_vec()));
        assert_eq!(
            cmd(&[b"SET", b"k", b"v"]).unwrap(),
            Command::Set(b"k".to_vec(), b"v".to_vec())
        );
        assert!(cmd(&[b"SET", b"k"]).unwrap_err().contains("wrong number"));
        assert!(cmd(&[b"NOSUCH"]).unwrap_err().contains("unknown command"));
        assert_eq!(
            cmd(&[b"SCAN", b"0", b"count", b"5"]).unwrap(),
            Command::Scan {
                after: None,
                count: 5
            }
        );
        assert!(cmd(&[b"SCAN", b"zz"]).unwrap_err().contains("cursor"));
    }
}
