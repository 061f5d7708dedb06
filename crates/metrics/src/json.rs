//! The one wire format of every `fadr-*` document (DESIGN.md § 18): a
//! strict pull [`Reader`] that builds no value tree, and the writer
//! pieces [`Quoted`] and [`list`]. Documents are `{"k": v, …}` on one
//! line.

use std::fmt::{self, Write as _};

/// A strict pull reader over a borrowed JSON document of objects,
/// arrays, unescaped strings and unsigned integers. Every error ends in
/// `at byte N`. Commas are required; trailing commas, leading zeros and
/// whitespace other than space, tab, CR and LF are rejected.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    i: usize,
}

/// The keys one [`Reader::object`] call read, out of the list it was
/// given.
#[derive(Debug, Clone, Copy)]
pub struct Seen<'k> {
    keys: &'k [&'k str],
    mask: u64,
}

// `#[inline]`: callers live in other crates, and `FaultPlan::parse` is timed.
impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    #[inline]
    pub fn new(text: &'a str) -> Self {
        Self { text, i: 0 }
    }

    /// Read an object whose keys all appear in `keys`, calling
    /// `value(slot, reader)` to read the value of `keys[slot]`. An
    /// unknown or repeated key is an error naming the key and its byte
    /// offset.
    pub fn object<'k>(
        &mut self,
        keys: &'k [&'k str],
        mut value: impl FnMut(usize, &mut Self) -> Result<(), String>,
    ) -> Result<Seen<'k>, String> {
        assert!(keys.len() <= 64, "an object takes at most 64 keys");
        let mut seen = Seen { keys, mask: 0 };
        self.seq(b'{', b'}', |r| {
            r.ws();
            let at = r.i;
            let key = r.str()?;
            let slot = keys
                .iter()
                .position(|&k| k == key)
                .ok_or_else(|| format!("unknown key {key:?} at byte {at}"))?;
            if seen.mask & 1 << slot != 0 {
                return Err(format!("duplicate key {key:?} at byte {at}"));
            }
            seen.mask |= 1 << slot;
            r.expect(b':')?;
            value(slot, r)
        })?;
        Ok(seen)
    }

    /// Read an object tagged by the string under `keys[0]` (such as
    /// `"kind"`) whose other values are unsigned integers. Returns the
    /// tag, the values by slot (0 where absent) and the keys seen.
    pub fn tagged<'k, const N: usize>(
        &mut self,
        keys: &'k [&'k str; N],
    ) -> Result<(&'a str, [u64; N], Seen<'k>), String> {
        self.ws();
        let at = self.i;
        let (mut tag, mut vals) = (None, [0; N]);
        let seen = self.object(keys, |slot, r| {
            match slot {
                0 => tag = Some(r.str()?),
                _ => vals[slot] = r.u64()?,
            }
            Ok(())
        })?;
        let tag = tag.ok_or_else(|| format!("missing {:?} in object at byte {at}", keys[0]))?;
        Ok((tag, vals, seen))
    }

    /// Read an array, calling `item(reader)` once per element.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.seq(b'[', b']', item)
    }

    /// Read a string, borrowed from the document. Escape sequences and
    /// control characters are rejected.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            match self.text.as_bytes().get(self.i) {
                None => return Err(format!("unterminated string at byte {}", start - 1)),
                Some(b'"') => break,
                Some(b'\\') => return Err(self.err("escape sequence in string")),
                Some(&c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => self.i += 1,
            }
        }
        self.i += 1;
        // Both ends sit next to an ASCII quote, so they are char boundaries.
        Ok(&self.text[start..self.i - 1])
    }

    /// Read an unsigned integer (no sign, no leading zero, at most
    /// `u64::MAX`).
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        self.ws();
        let start = self.i;
        let rest = &self.text.as_bytes()[start..];
        let len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        if len == 0 {
            return Err(self.err("expected an unsigned integer"));
        }
        if len > 1 && rest[0] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        self.i += len;
        self.text[start..self.i]
            .parse()
            .map_err(|_| format!("number out of range at byte {start}"))
    }

    /// Require that only whitespace is left.
    #[inline]
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing data")),
        }
    }

    /// `open item (, item)* close`, or `open close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err(format_args!("expected ',' or '{}'", char::from(close))));
            }
        }
    }

    #[inline]
    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.text.as_bytes().get(self.i) {
            self.i += 1;
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.text.as_bytes().get(self.i).copied()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format_args!("expected '{}'", char::from(b))))
        }
    }

    fn err(&self, what: impl fmt::Display) -> String {
        format!("{what} at byte {}", self.i)
    }
}

impl Seen<'_> {
    /// Whether the object carried `key`.
    pub fn has(&self, key: &str) -> bool {
        self.mask & self.bit(key) != 0
    }

    /// Require that the object carried exactly the keys `takes`, the
    /// keys one kind of a tagged object takes. The error names the first
    /// foreign key (`{what} does not take "k"`), else the first absent
    /// one (`{what} missing "k"`).
    pub fn exactly(&self, takes: &[&str], what: fmt::Arguments<'_>) -> Result<(), String> {
        let want = takes.iter().fold(0, |m, k| m | self.bit(k));
        let key = |m: u64| self.keys[m.trailing_zeros() as usize];
        match (self.mask & !want, want & !self.mask) {
            (0, 0) => Ok(()),
            (0, missing) => Err(format!("{what} missing {:?}", key(missing))),
            (foreign, _) => Err(format!("{what} does not take {:?}", key(foreign))),
        }
    }

    fn bit(&self, key: &str) -> u64 {
        self.keys
            .iter()
            .position(|&k| k == key)
            .map_or(0, |slot| 1 << slot)
    }
}

/// A string written as a JSON string literal: the one escaping rule.
/// `"` and `\` get a backslash, a newline becomes `\n`, and every other
/// control character becomes `\u00XX`.
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut rest = self.0;
        while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
            f.write_str(&rest[..i])?;
            // Every character found is ASCII, so one byte long.
            match rest.as_bytes()[i] {
                b'\n' => f.write_str("\\n")?,
                c @ (b'"' | b'\\') => write!(f, "\\{}", char::from(c))?,
                c => write!(f, "\\u{c:04x}")?,
            }
            rest = &rest[i + 1..];
        }
        f.write_str(rest)?;
        f.write_char('"')
    }
}

/// Write `items` as a JSON array, `[a, b, c]`: the one separator rule.
/// `item` writes one element.
pub fn list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T) -> fmt::Result,
) {
    out.push('[');
    for (k, x) in items.into_iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        // Writing into a `String` cannot fail.
        let _ = item(out, x);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read `{"a": <u64>, "b": <str>, "c": [<u64>, …]}` with every key
    /// optional.
    fn read(text: &str) -> Result<(u64, String, Vec<u64>), String> {
        let mut r = Reader::new(text);
        let (mut a, mut b, mut c) = (0, String::new(), Vec::new());
        r.object(&["a", "b", "c"], |slot, r| {
            match slot {
                0 => a = r.u64()?,
                1 => b = r.str()?.to_string(),
                _ => r.array(|r| {
                    c.push(r.u64()?);
                    Ok(())
                })?,
            }
            Ok(())
        })?;
        r.end()?;
        Ok((a, b, c))
    }

    #[test]
    fn reads_objects_arrays_strings_and_numbers() {
        let v = read(" {\"c\": [1, 20,300] ,\n\"b\": \"x y\", \"a\": 0}\r\n\t").unwrap();
        assert_eq!(v, (0, "x y".to_string(), vec![1, 20, 300]));
        assert_eq!(read("{}").unwrap(), (0, String::new(), Vec::new()));
        assert_eq!(read("{\"c\": []}").unwrap().2, Vec::<u64>::new());
        assert_eq!(read("{\"a\": 18446744073709551615}").unwrap().0, u64::MAX);
    }

    #[test]
    fn every_error_names_its_byte_offset() {
        let cases = [
            ("", "expected '{' at byte 0"),
            ("[]", "expected '{' at byte 0"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("{\"a\": 1 \"b\": \"\"}", "expected ',' or '}' at byte 8"),
            ("{\"a\": 1,}", "expected '\"' at byte 8"),
            ("{\"c\": [1 2]}", "expected ',' or ']' at byte 9"),
            ("{\"c\": [1,]}", "expected an unsigned integer at byte 9"),
            ("{\"a\": -1}", "expected an unsigned integer at byte 6"),
            ("{\"a\": 01}", "leading zero in number at byte 6"),
            (
                "{\"a\": 18446744073709551616}",
                "number out of range at byte 6",
            ),
            ("{\"b\": \"x", "unterminated string at byte 6"),
            ("{\"b\": \"x\\\"\"}", "escape sequence in string at byte 8"),
            ("{\"b\": \"x\ty\"}", "control character in string at byte 8"),
            ("{\"a\": 1} x", "trailing data at byte 9"),
            ("{\"a\": 1}}", "trailing data at byte 8"),
            ("{\"a\": 1\u{c}}", "expected ',' or '}' at byte 7"),
        ];
        for (text, want) in cases {
            assert_eq!(read(text).unwrap_err(), want, "{text:?}");
        }
    }

    #[test]
    fn unknown_and_repeated_keys_are_named() {
        assert_eq!(
            read("{\"a\": 1, \"color\": 2}").unwrap_err(),
            "unknown key \"color\" at byte 9"
        );
        assert_eq!(
            read("{\"a\": 1, \"b\": \"\", \"a\": 2}").unwrap_err(),
            "duplicate key \"a\" at byte 18"
        );
    }

    #[test]
    fn seen_reports_present_foreign_and_missing_keys() {
        let keys = ["kind", "x", "y"];
        let mut r = Reader::new("{\"kind\": \"p\", \"x\": 1}");
        let seen = r.object(&keys, |slot, r| match slot {
            0 => r.str().map(drop),
            _ => r.u64().map(drop),
        });
        let seen = seen.unwrap();
        assert!(seen.has("x") && !seen.has("y") && !seen.has("z"));
        assert!(seen.exactly(&["kind", "x"], format_args!("p")).is_ok());
        assert_eq!(
            seen.exactly(&["kind", "y"], format_args!("kind {:?}", "p"))
                .unwrap_err(),
            "kind \"p\" does not take \"x\""
        );
        assert_eq!(
            seen.exactly(&["kind", "x", "y"], format_args!("p"))
                .unwrap_err(),
            "p missing \"y\""
        );
    }

    #[test]
    fn tagged_reads_the_tag_and_integer_values() {
        let keys = ["kind", "x", "y"];
        let (tag, vals, seen) = Reader::new("{\"y\": 7, \"kind\": \"p\"}")
            .tagged(&keys)
            .unwrap();
        assert_eq!((tag, vals), ("p", [0, 0, 7]));
        assert!(seen.has("y") && !seen.has("x"));
        assert_eq!(
            Reader::new(" {\"x\": 1}").tagged(&keys).unwrap_err(),
            "missing \"kind\" in object at byte 1"
        );
        assert_eq!(
            Reader::new("{\"kind\": 1}").tagged(&keys).unwrap_err(),
            "expected '\"' at byte 9"
        );
    }

    #[test]
    fn quoted_escapes_json_specials() {
        assert_eq!(Quoted("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Quoted("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(Quoted("q1[10] é").to_string(), "\"q1[10] é\"");
        assert_eq!(Quoted("").to_string(), "\"\"");
    }

    #[test]
    fn quoted_escapes_quotes_and_backslashes() {
        assert_eq!(Quoted("a\"b\\c").to_string(), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn quoted_output_reads_back() {
        let s = "plain q1[*] -> q2[3], § 2";
        let doc = format!("{{\"b\": {}}}", Quoted(s));
        assert_eq!(read(&doc).unwrap().1, s);
    }

    #[test]
    fn list_separates_with_comma_space() {
        let mut out = String::new();
        list(&mut out, [1, 2, 3], |out, x| write!(out, "{x}"));
        list(&mut out, Vec::<u8>::new(), |out, x| write!(out, "{x}"));
        list(&mut out, ["a"], |out, s| write!(out, "{}", Quoted(s)));
        assert_eq!(out, "[1, 2, 3][][\"a\"]");
    }
}
