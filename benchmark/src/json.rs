//! A small JSON reader into the repository's own [`stats::Json`] tree
//! (which only writes). `flowbench compare` reads result files with it
//! and the tests read `BENCHMARK.json`; both are files this benchmark or
//! its authors wrote, so the reader is strict and does not try to be
//! lenient about malformed input — it reports the byte offset and stops.

use stats::Json;

/// Nesting bound: result files nest four deep; anything far beyond that
/// is not one of ours, and recursion must not be input-controlled.
const MAX_DEPTH: usize = 32;

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut entries = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.expect(b':')?;
                    entries.push((k, self.value(depth + 1)?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(entries));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII by construction");
        if let Ok(u) = tok.parse::<u64>() {
            return Ok(Json::U64(u));
        }
        tok.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = *self.s.get(self.i).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match c {
                        b'"' | b'\\' | b'/' => out.push(c),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

/// Field `key` of an object (`None` for other values or a missing key).
pub fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number of either flavour as `f64`.
pub fn num(v: &Json) -> Option<f64> {
    match v {
        Json::Num(x) => Some(*x),
        Json::U64(x) => Some(*x as f64),
        Json::I64(x) => Some(*x as f64),
        _ => None,
    }
}

pub fn entries(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(e) => e,
        _ => &[],
    }
}

#[cfg(test)]
pub fn items(v: &Json) -> &[Json] {
    match v {
        Json::Arr(a) => a,
        _ => &[],
    }
}

pub fn text(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_what_the_writer_writes() {
        let mut o = Json::obj();
        o.set("a", Json::Num(1.25e-7));
        o.set("b", Json::U64(18_446_744_073_709_551_615));
        o.set("s", Json::str("q\"uo\\te\n\u{1}é"));
        let mut arr = Json::arr();
        arr.push(Json::Bool(true));
        arr.push(Json::Null);
        arr.push(Json::obj());
        arr.push(Json::arr());
        o.set("arr", arr);
        assert_eq!(parse(&o.to_string()).unwrap(), o);
        assert_eq!(parse(&o.to_string_pretty()).unwrap(), o);
    }

    #[test]
    fn floats_keep_every_digit() {
        let x = 0.123_456_789_012_345_68_f64;
        let v = parse(&Json::Num(x).to_string()).unwrap();
        assert_eq!(num(&v).unwrap().to_bits(), x.to_bits());
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
    }

    #[test]
    fn rejects_malformed_input_with_an_offset() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"abc",
            "1 2",
            "tru",
            "{\"a\":}",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.contains("at byte"), "{bad:?}: {e}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().contains("deeply"));
    }
}
