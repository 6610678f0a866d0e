//! The workspace's one flat-JSON codec (the offline build has no
//! serde). Trace JSONL ([`crate::trace`]), schedule artifacts
//! ([`crate::sim::Artifact`]) and the bench reports all write their
//! strings through [`write_str`]; the two formats that are read back
//! parse through [`Object`].
//!
//! The reader takes one flat object whose values are strings, unsigned
//! integers, booleans or arrays of strings — every value those formats
//! write. Anything else (nesting, negatives, floats, `null`, trailing
//! bytes) is an error, never a panic: artifacts and traces come from
//! disk.

/// Append `s` to `out` as a quoted JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a quoted JSON string literal.
pub fn str_lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

#[derive(Debug)]
enum Value {
    Str(String),
    Num(u64),
    Bool(bool),
    Strs(Vec<String>),
}

/// One parsed flat JSON object. A repeated name keeps its last value.
#[derive(Debug)]
pub struct Object {
    fields: Vec<(String, Value)>,
}

impl Object {
    /// Parse `text`, which must hold exactly one object (surrounding
    /// whitespace allowed).
    pub fn parse(text: &str) -> Result<Object, String> {
        let mut r = Reader { s: text, i: 0 };
        r.expect(b'{')?;
        let mut fields = Vec::new();
        if !r.eat(b'}') {
            loop {
                let name = r.string()?;
                r.expect(b':')?;
                fields.push((name, r.value()?));
                if r.eat(b'}') {
                    break;
                }
                r.expect(b',')?;
            }
        }
        r.ws();
        if r.i < text.len() {
            return Err(format!("trailing bytes at byte {}", r.i));
        }
        Ok(Object { fields })
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Whether the object has a field `name`.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Field names, in input order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_str())
    }

    /// The string field `name`.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        match self.get(name) {
            Some(Value::Str(s)) => Ok(s),
            _ => Err(missing(name, "string")),
        }
    }

    /// The unsigned integer field `name`.
    pub fn num(&self, name: &str) -> Result<u64, String> {
        match self.get(name) {
            Some(Value::Num(n)) => Ok(*n),
            _ => Err(missing(name, "number")),
        }
    }

    /// The boolean field `name`.
    pub fn bool(&self, name: &str) -> Result<bool, String> {
        match self.get(name) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(missing(name, "bool")),
        }
    }

    /// The string-array field `name`.
    pub fn strs(&self, name: &str) -> Result<&[String], String> {
        match self.get(name) {
            Some(Value::Strs(v)) => Ok(v),
            _ => Err(missing(name, "string array")),
        }
    }
}

fn missing(name: &str, what: &str) -> String {
    format!("missing {what} field `{name}`")
}

/// Cursor over the input. Every token reader skips leading whitespace.
/// `i` only ever stops on a char boundary: it advances past ASCII bytes
/// one at a time and past other text only in whole `str` slices.
struct Reader<'a> {
    s: &'a str,
    i: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        let rest = &self.s.as_bytes()[self.i..];
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.strings().map(Value::Strs),
            Some(b'0'..=b'9') => self.num().map(Value::Num),
            _ if rest.starts_with(b"true") => {
                self.i += 4;
                Ok(Value::Bool(true))
            }
            _ if rest.starts_with(b"false") => {
                self.i += 5;
                Ok(Value::Bool(false))
            }
            _ => Err(format!("unexpected value at byte {}", self.i)),
        }
    }

    fn num(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        self.s[start..self.i].parse().map_err(|e| format!("number at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.i += 1;
            }
            out.push_str(&self.s[start..self.i]);
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => return Err(format!("raw control byte in string at byte {}", self.i - 1)),
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self.s.as_bytes().get(self.i + 1..self.i + 5);
                    let code = hex
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                    self.i += 4;
                    code
                }
                _ => return Err(format!("bad escape at byte {}", self.i)),
            };
            self.i += 1;
            out.push(c);
        }
    }

    fn strings(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.eat(b']') {
            return Ok(out);
        }
        loop {
            out.push(self.string()?);
            if self.eat(b']') {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaper_and_reader_invert_each_other() {
        let hard = "q\"b\\c\u{1}\n\r\té€😀/";
        let lit = str_lit(hard);
        assert_eq!(lit, "\"q\\\"b\\\\c\\u0001\\n\\r\\té€😀/\"");
        let o = Object::parse(&format!("{{\"s\":{lit},\"a\":[{lit},\"\"],\"n\":7,\"b\":false}}"))
            .unwrap();
        assert_eq!(o.str("s").unwrap(), hard);
        assert_eq!(o.strs("a").unwrap(), [hard, ""]);
        assert_eq!(o.num("n").unwrap(), 7);
        assert!(!o.bool("b").unwrap());
        assert!(o.str("n").is_err() && o.num("missing").is_err());
    }

    #[test]
    fn reader_rejects_what_the_writers_never_write() {
        for bad in [
            "", "{", "{}x", "[]", "{\"a\":null}", "{\"a\":-1}", "{\"a\":1.5}",
            "{\"a\":{}}", "{\"a\":[1]}", "{\"a\":\"\\u00zz\"}", "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\u{1}\"}", "{\"a\":99999999999999999999}", "{\"a\":1,}", "{,\"a\":1}",
        ] {
            assert!(Object::parse(bad).is_err(), "{bad:?}");
        }
        assert!(Object::parse(" { } \n").is_ok());
    }
}
