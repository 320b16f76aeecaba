//! The workspace's one flat-JSON writer/parser: the event log, the
//! calibration artifact and the store's recovery report all go through it.
//!
//! Records are JSON objects whose values are strings, numbers, or booleans
//! — never nested — so a ~100-line hand parser keeps the workspace free of
//! a JSON dependency while making every artifact replayable. Numbers are
//! kept as raw token strings on parse so `u64` fields (seeds, digests) and
//! shortest-round-trip `f64`s come back exactly. Whitespace (including
//! newlines) is tolerated wherever JSON allows it, so one-key-per-line
//! artifacts parse the same as single-line log records.

/// Append `"key":"escaped-value",` to a JSON object under construction.
pub fn push_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push_str("\",");
}

/// Append `"key":token,` for an unquoted token (number or boolean).
pub fn push_raw(out: &mut String, key: &str, token: impl std::fmt::Display) {
    use std::fmt::Write;
    let _ = write!(out, "\"{key}\":{token},");
}

/// Append `s` with JSON string escaping applied (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One parsed value: a decoded string or a raw unquoted token.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Raw(String),
}

/// The parsed key/value pairs of one flat JSON object.
#[derive(Debug, Default)]
pub struct Fields(Vec<(String, Val)>);

impl Fields {
    /// Parse one flat JSON object.
    pub fn parse(line: &str) -> Result<Fields, String> {
        let mut fields = Vec::new();
        let s = line.trim();
        let inner = s
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
        let mut chars = inner.chars().peekable();
        loop {
            while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
                chars.next();
            }
            if chars.peek().is_none() {
                break;
            }
            let key = parse_string(&mut chars)?;
            skip_whitespace(&mut chars);
            match chars.next() {
                Some(':') => {}
                other => return Err(format!("expected ':' after key {key:?}, got {other:?}")),
            }
            skip_whitespace(&mut chars);
            let val = match chars.peek() {
                Some('"') => Val::Str(parse_string(&mut chars)?),
                Some(_) => {
                    let mut tok = String::new();
                    while matches!(chars.peek(), Some(c) if *c != ',') {
                        tok.push(chars.next().expect("peeked"));
                    }
                    Val::Raw(tok.trim().to_string())
                }
                None => return Err(format!("missing value for key {key:?}")),
            };
            fields.push((key, val));
        }
        Ok(Fields(fields))
    }

    /// The string value under `key`, if present and a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let Val::Str(s) = v {
                Some(s.as_str())
            } else {
                None
            }
        })
    }

    fn raw(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let Val::Raw(s) = v {
                Some(s.as_str())
            } else {
                None
            }
        })
    }

    /// The unquoted token under `key` parsed as `T`, if present and valid.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.raw(key)?.parse().ok()
    }

    /// The boolean under `key`, if present and `true`/`false`.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.raw(key)? {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }
}

fn skip_whitespace(chars: &mut std::iter::Peekable<std::str::Chars>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
    match chars.next() {
        Some('"') => {}
        other => return Err(format!("expected '\"', got {other:?}")),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                    out.push(char::from_u32(code).ok_or_else(|| format!("bad \\u{hex}"))?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_escapes() {
        let mut out = String::from("{");
        push_str(&mut out, "a", "x \"y\"\\\n\tz\u{1}");
        push_raw(&mut out, "n", 18446744073709551615u64);
        push_raw(&mut out, "b", true);
        out.pop();
        out.push('}');
        let f = Fields::parse(&out).unwrap();
        assert_eq!(f.str("a"), Some("x \"y\"\\\n\tz\u{1}"));
        assert_eq!(f.num::<u64>("n"), Some(u64::MAX));
        assert_eq!(f.bool("b"), Some(true));
    }

    #[test]
    fn tolerates_pretty_printed_layout() {
        let f =
            Fields::parse("{\n  \"s\" : \"a, b\",\n  \"x\": 1.5e-9,\n  \"b\": false\n}\n").unwrap();
        assert_eq!(f.str("s"), Some("a, b"));
        assert_eq!(f.num::<f64>("x"), Some(1.5e-9));
        assert_eq!(f.bool("b"), Some(false));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Fields::parse("not json").is_err());
        assert!(Fields::parse("{\"k\" 1}").is_err());
    }
}
