//! Wire protocol: line-delimited JSON-ish request/response framing.
//!
//! One request per line, one response per line, UTF-8. Requests and
//! responses are both **flat** JSON objects — string keys mapping to
//! scalar values (strings, numbers, booleans, null) — so one small,
//! allocation-bounded parser handles both directions and is easy to fuzz.
//! Structured payloads travel *inside* string values using the repo's
//! canonical encodings: problem instances as [`pcap_core::canon`] text,
//! sweep results as the `cap=bits` list of [`render_results`].
//!
//! ```text
//! → {"op":"sweep","instance":"pcapc1;machine=…;dag=…;caps=…"}
//! ← {"ok":true,"op":"sweep","fingerprint":"…","cached":"miss","results":"480=3fe…,560=inf",…}
//! → {"op":"stats"}
//! ← {"ok":true,"op":"stats","requests":"12","cache_hits":"7",…}
//! → {"op":"ping"}            → {"op":"shutdown"}
//! ```
//!
//! Errors are always a well-formed response on the same connection — a
//! malformed or oversized line never kills the session:
//!
//! ```text
//! ← {"ok":false,"code":"overloaded","error":"…","retry_after_ms":"250"}
//! ```
//!
//! The full grammar, error-code table and shedding semantics are
//! documented in `DESIGN.md` §7.

use pcap_core::{CoreError, SweepPoint};

/// Default cap on one request line, bytes, newline included. A canonical
/// instance at the validation limits (4096 caps) fits comfortably;
/// anything larger is answered with [`ErrorCode::TooLarge`] after the rest
/// of the line is drained, keeping the connection usable.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Machine-readable failure classes carried in the `code` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a valid request object (bad JSON-ish syntax,
    /// missing/unknown `op`, missing required field).
    Parse,
    /// The line exceeded the server's size cap.
    TooLarge,
    /// The instance failed to decode, validate or resolve.
    BadInstance,
    /// The admission queue is full; retry after `retry_after_ms`.
    Overloaded,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// A solver or coalescing failure on the server side.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::BadInstance => "bad_instance",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A protocol-level failure: code plus human detail, rendered by
/// [`error_response`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    pub code: ErrorCode,
    pub detail: String,
    /// Suggested client backoff, only meaningful for [`ErrorCode::Overloaded`].
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        Self { code, detail: detail.into(), retry_after_ms: None }
    }

    /// An [`ErrorCode::Overloaded`] error with an explicit retry hint.
    pub fn overloaded(detail: impl Into<String>, retry_after_ms: u64) -> Self {
        Self {
            code: ErrorCode::Overloaded,
            detail: detail.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve (or fetch from cache) the sweep described by a canonical
    /// instance text.
    Sweep {
        /// The `pcapc1;…` canonical encoding, decoded by the server.
        instance: String,
        /// End-to-end latency budget, milliseconds from receipt. When the
        /// budget expires before a solve finishes, the server answers with
        /// the degraded discrete floor instead of blocking; queued work
        /// whose budget already lapsed is dropped without solving.
        deadline_ms: Option<u64>,
    },
    /// Return the server metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown: drain accepted jobs, then exit.
    Shutdown,
}

/// Parses one request line. Never panics on any input.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let pairs = parse_object(line).map_err(|e| ProtoError::new(ErrorCode::Parse, e))?;
    let get = |key: &str| pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    let op = get("op").ok_or_else(|| ProtoError::new(ErrorCode::Parse, "missing 'op' field"))?;
    match op {
        "sweep" => {
            let instance = get("instance").ok_or_else(|| {
                ProtoError::new(ErrorCode::Parse, "sweep request missing 'instance'")
            })?;
            let deadline_ms = match get("deadline_ms") {
                None => None,
                Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
                    ProtoError::new(
                        ErrorCode::Parse,
                        format!("deadline_ms must be a non-negative integer, got '{raw}'"),
                    )
                })?),
            };
            Ok(Request::Sweep { instance: instance.to_string(), deadline_ms })
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => {
            let mut shown: String = other.chars().take(32).collect();
            if shown.len() < other.len() {
                shown.push('…');
            }
            Err(ProtoError::new(ErrorCode::Parse, format!("unknown op '{shown}'")))
        }
    }
}

/// Parses a flat JSON-ish object into key/value pairs (document order,
/// duplicates preserved — readers take the last occurrence). Values may be
/// strings (escapes decoded), numbers, `true`/`false`/`null` (kept as
/// their literal spelling). Nested objects/arrays are rejected: the
/// protocol is deliberately flat.
pub fn parse_object(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut p = Parser { chars: text.chars().collect(), pos: 0 };
    p.skip_ws();
    p.expect('{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some('}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            let value = p.scalar()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(',') => continue,
                Some('}') => break,
                Some(c) => return Err(format!("expected ',' or '}}', got '{c}'")),
                None => return Err("unterminated object".into()),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(pairs)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected '{want}', got '{c}'")),
            None => Err(format!("expected '{want}', got end of line")),
        }
    }

    /// A double-quoted string with JSON escapes.
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    None => return Err("unterminated escape".into()),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut v: u32 = 0;
                        for _ in 0..4 {
                            let d =
                                self.next().and_then(|c| c.to_digit(16)).ok_or("bad \\u escape")?;
                            v = v * 16 + d;
                        }
                        // Unpaired surrogates map to the replacement char
                        // rather than failing: the payload formats never
                        // use them, and lenient beats lossy-panic.
                        out.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                    }
                    Some(c) => return Err(format!("bad escape '\\{c}'")),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err("raw control character in string".into())
                }
                Some(c) => out.push(c),
            }
        }
    }

    /// A scalar value: string, number, or bare literal.
    fn scalar(&mut self) -> Result<String, String> {
        match self.peek() {
            Some('"') => self.string(),
            Some('{') | Some('[') => Err("nested values are not part of the protocol".into()),
            Some(c) if c == '-' || c.is_ascii_digit() || c.is_ascii_alphabetic() => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(c) if c.is_ascii_alphanumeric() || "+-._".contains(c)
                ) {
                    self.pos += 1;
                }
                let tok: String = self.chars[start..self.pos].iter().collect();
                match tok.as_str() {
                    "true" | "false" | "null" => Ok(tok),
                    _ if tok.parse::<f64>().is_ok() => Ok(tok),
                    _ => Err(format!("bad literal '{tok}'")),
                }
            }
            Some(c) => Err(format!("unexpected value start '{c}'")),
            None => Err("missing value".into()),
        }
    }
}

/// JSON string escaping for emitted responses.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a flat object from key/value pairs; every value is emitted as a
/// JSON string except bare `true`/`false`, which stay literals (so `ok`
/// reads naturally).
pub fn render_object<K: AsRef<str>>(pairs: &[(K, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let k = k.as_ref();
        if i > 0 {
            out.push(',');
        }
        if v == "true" || v == "false" {
            out.push_str(&format!("\"{}\":{v}", json_escape(k)));
        } else {
            out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
    }
    out.push('}');
    out
}

/// The one-line error response for `err`.
pub fn error_response(err: &ProtoError) -> String {
    let mut pairs = vec![
        ("ok", "false".to_string()),
        ("code", err.code.as_str().to_string()),
        ("error", err.detail.clone()),
    ];
    if let Some(ms) = err.retry_after_ms {
        pairs.push(("retry_after_ms", ms.to_string()));
    }
    render_object(&pairs)
}

/// Canonical wire form of a sweep's results: `cap=value` pairs joined by
/// `,`, in grid order, where `value` is the IEEE-754 bit pattern of the
/// makespan as 16 hex digits (so "byte-identical to an in-process
/// [`pcap_core::solve_sweep`]" is checkable by string equality), `inf` for
/// an infeasible cap, or `err` for a solver failure at that cap.
pub fn render_results(points: &[SweepPoint]) -> String {
    let mut parts = Vec::with_capacity(points.len());
    for p in points {
        let v = match &p.schedule {
            Ok(s) => format!("{:016x}", s.makespan_s.to_bits()),
            Err(CoreError::Infeasible) => "inf".to_string(),
            Err(_) => "err".to_string(),
        };
        parts.push(format!("{}={v}", p.cap_w));
    }
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_four_ops() {
        assert_eq!(
            parse_request("{\"op\":\"sweep\",\"instance\":\"pcapc1;x\"}").unwrap(),
            Request::Sweep { instance: "pcapc1;x".into(), deadline_ms: None }
        );
        assert_eq!(parse_request("{\"op\":\"stats\"}").unwrap(), Request::Stats);
        assert_eq!(parse_request(" {\"op\" : \"ping\"} ").unwrap(), Request::Ping);
        assert_eq!(parse_request("{\"op\":\"shutdown\"}").unwrap(), Request::Shutdown);
    }

    #[test]
    fn sweep_deadlines_parse_and_reject_garbage() {
        assert_eq!(
            parse_request("{\"op\":\"sweep\",\"instance\":\"pcapc1;x\",\"deadline_ms\":250}")
                .unwrap(),
            Request::Sweep { instance: "pcapc1;x".into(), deadline_ms: Some(250) }
        );
        // String spelling is accepted too (all scalars travel as text).
        assert_eq!(
            parse_request("{\"op\":\"sweep\",\"instance\":\"pcapc1;x\",\"deadline_ms\":\"90\"}")
                .unwrap(),
            Request::Sweep { instance: "pcapc1;x".into(), deadline_ms: Some(90) }
        );
        for bad in [
            "{\"op\":\"sweep\",\"instance\":\"x\",\"deadline_ms\":-5}",
            "{\"op\":\"sweep\",\"instance\":\"x\",\"deadline_ms\":1.5}",
            "{\"op\":\"sweep\",\"instance\":\"x\",\"deadline_ms\":\"soon\"}",
        ] {
            assert_eq!(parse_request(bad).unwrap_err().code, ErrorCode::Parse, "input: {bad}");
        }
    }

    #[test]
    fn later_duplicate_keys_win() {
        let r = parse_request("{\"op\":\"ping\",\"op\":\"stats\"}").unwrap();
        assert_eq!(r, Request::Stats);
    }

    #[test]
    fn rejects_malformed_lines_cleanly() {
        for bad in [
            "",
            "hello",
            "{",
            "{}",
            "{\"op\":}",
            "{\"op\":\"sweep\"}",
            "{\"op\":\"warp\"}",
            "{\"op\":[1]}",
            "{\"op\":{\"x\":1}}",
            "{\"op\":\"ping\"} trailing",
            "{\"op\":\"ping\"",
            "{\"op\":\"pi\u{7}ng\"}",
            "{\"op\":\"ping\\q\"}",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.code, ErrorCode::Parse, "input: {bad:?}");
        }
    }

    #[test]
    fn numbers_booleans_and_escapes_round_trip() {
        let pairs =
            parse_object("{\"a\":1.5,\"b\":true,\"c\":null,\"d\":\"x\\n\\\"y\\u0041\"}").unwrap();
        assert_eq!(pairs[0], ("a".into(), "1.5".into()));
        assert_eq!(pairs[1], ("b".into(), "true".into()));
        assert_eq!(pairs[2], ("c".into(), "null".into()));
        assert_eq!(pairs[3], ("d".into(), "x\n\"yA".into()));
    }

    #[test]
    fn emitted_responses_parse_back() {
        let err = ProtoError::overloaded("queue full", 250);
        let line = error_response(&err);
        let pairs = parse_object(&line).unwrap();
        let get = |k: &str| pairs.iter().find(|(pk, _)| pk == k).map(|(_, v)| v.clone());
        assert_eq!(get("ok").as_deref(), Some("false"));
        assert_eq!(get("code").as_deref(), Some("overloaded"));
        assert_eq!(get("retry_after_ms").as_deref(), Some("250"));

        let ok = render_object(&[
            ("ok", "true".into()),
            ("results", "480=3fe4000000000000,560=inf".into()),
            ("note", "tabs\tand \"quotes\"".into()),
        ]);
        let pairs = parse_object(&ok).unwrap();
        assert_eq!(pairs[2].1, "tabs\tand \"quotes\"");
    }
}
