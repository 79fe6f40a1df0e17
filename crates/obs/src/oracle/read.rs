//! The tree-based reader `crate::journal` replaced: a recursive-descent
//! parser that builds every string byte by byte and every object as a
//! `JsonValue` tree, and a journal line reader that looks its fields up
//! in that tree and clones them out. Kept verbatim.

use crate::journal::{Journal, JournalInstant, JournalSpan, JsonValue};

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // writers; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from the byte stream.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parse one JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(v)
}

fn opt_f64(v: Option<&JsonValue>) -> Option<f64> {
    match v {
        Some(JsonValue::Num(n)) => Some(*n),
        _ => None,
    }
}

fn req_u64(obj: &JsonValue, key: &str, line_no: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("journal line {line_no}: missing integer field '{key}'"))
}

fn req_str(obj: &JsonValue, key: &str, line_no: usize) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("journal line {line_no}: missing string field '{key}'"))
}

fn attrs_of(obj: &JsonValue) -> Vec<(String, JsonValue)> {
    obj.get("attrs")
        .and_then(JsonValue::as_obj)
        .map(|fields| fields.to_vec())
        .unwrap_or_default()
}

/// Parse one journal line into `journal`. Records are constructed in
/// full before being pushed, so a failed line never leaves a partial
/// record behind.
fn parse_journal_line(line: &str, line_no: usize, journal: &mut Journal) -> Result<(), String> {
    let v = parse_json(line).map_err(|e| format!("journal line {line_no}: {e}"))?;
    let t = req_str(&v, "t", line_no)?;
    match t.as_str() {
        "span" => journal.spans.push(JournalSpan {
            id: req_u64(&v, "id", line_no)?,
            parent: req_u64(&v, "parent", line_no)?,
            seq: req_u64(&v, "seq", line_no)?,
            name: req_str(&v, "name", line_no)?,
            kind: req_str(&v, "kind", line_no)?,
            wall_ns: req_u64(&v, "wall_ns", line_no)?,
            wall_dur_ns: req_u64(&v, "wall_dur_ns", line_no)?,
            sim_secs: opt_f64(v.get("sim_secs")),
            sim_dur_secs: opt_f64(v.get("sim_dur_secs")),
            attrs: attrs_of(&v),
        }),
        "instant" => journal.instants.push(JournalInstant {
            parent: req_u64(&v, "parent", line_no)?,
            seq: req_u64(&v, "seq", line_no)?,
            name: req_str(&v, "name", line_no)?,
            kind: req_str(&v, "kind", line_no)?,
            wall_ns: req_u64(&v, "wall_ns", line_no)?,
            sim_secs: opt_f64(v.get("sim_secs")),
            attrs: attrs_of(&v),
        }),
        "metrics" => journal.metrics = Some(v),
        other => {
            return Err(format!(
                "journal line {line_no}: unknown record type '{other}'"
            ))
        }
    }
    Ok(())
}

/// Parse a JSONL journal as written by [`crate::export::jsonl`].
///
/// Journals are append-ordered, so a process killed mid-write can only
/// corrupt the *final* line: a torn or malformed last line is skipped
/// (counted in [`Journal::torn_lines`]) instead of failing the parse —
/// the JSONL analog of the binary WAL's torn-tail rule
/// ([`crate::wal`]). Corruption anywhere *before* the final line cannot
/// come from a crash and remains a hard error.
pub fn parse_journal(text: &str) -> Result<Journal, String> {
    let mut journal = Journal::default();
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty())
        .collect();
    let last_idx = lines.len().saturating_sub(1);
    for (idx, (line_no, line)) in lines.iter().enumerate() {
        match parse_journal_line(line, *line_no, &mut journal) {
            Ok(()) => {}
            Err(_) if idx == last_idx => journal.torn_lines += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(journal)
}
