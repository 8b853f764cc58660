//! Hardened query-string parsing for the stats endpoint.
//!
//! The stats server answers anything that can open a TCP socket, so the
//! query layer treats every request as hostile until parsed: bounded
//! sizes, validated percent-escapes, rejected duplicates, and a typed
//! [`QueryError`] that every route serves as a `400` JSON body. Parsing
//! happens *once per request, before any route dispatch* — a malformed
//! query is rejected identically on every path, built-in or plugged-in
//! ([`crate::server::RouteHandler`]).

use std::fmt;

/// Longest raw query string accepted (bytes, before decoding).
pub const MAX_QUERY_BYTES: usize = 2048;
/// Most `key=value` pairs accepted.
pub const MAX_PARAMS: usize = 32;
/// Longest decoded parameter key (bytes).
pub const MAX_KEY_BYTES: usize = 64;
/// Longest decoded parameter value (bytes).
pub const MAX_VALUE_BYTES: usize = 512;

/// Why a query string was rejected. Served as the `400` response body
/// via [`QueryError::to_json`] — machine-readable `kind`, human-readable
/// `detail`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Stable machine-readable tag (`"overlong_query"`,
    /// `"duplicate_param"`, `"bad_escape"`, …).
    pub kind: &'static str,
    /// Human-readable specifics (which parameter, what was wrong).
    pub detail: String,
}

impl QueryError {
    fn new(kind: &'static str, detail: impl Into<String>) -> QueryError {
        QueryError { kind, detail: detail.into() }
    }

    /// The typed JSON error body every route serves with status 400.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"error\": {{\"kind\": \"{}\", \"detail\": {}}}}}",
            self.kind,
            crate::json_str(&self.detail)
        )
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// A validated, decoded query string: unique keys, bounded sizes, clean
/// percent-escapes. The only way to get one is [`Query::parse`], so a
/// route holding a `Query` never re-validates.
#[derive(Debug, Clone, Default)]
pub struct Query {
    pairs: Vec<(String, String)>,
}

impl Query {
    /// Parses and validates a raw query string (the part after `?`,
    /// `None` when the request had none). Enforces, in order: total
    /// length, parameter count, per-pair shape (`key=value` or bare
    /// `key`), percent-escape validity, UTF-8 after decoding, no
    /// control characters, per-part length bounds, and key uniqueness.
    pub fn parse(raw: Option<&str>) -> Result<Query, QueryError> {
        let raw = match raw {
            None | Some("") => return Ok(Query::default()),
            Some(r) => r,
        };
        if raw.len() > MAX_QUERY_BYTES {
            return Err(QueryError::new(
                "overlong_query",
                format!("query string is {} bytes (max {MAX_QUERY_BYTES})", raw.len()),
            ));
        }
        let mut pairs: Vec<(String, String)> = Vec::new();
        for part in raw.split('&') {
            if part.is_empty() {
                // Tolerate `a=1&&b=2` and trailing `&`.
                continue;
            }
            if pairs.len() == MAX_PARAMS {
                return Err(QueryError::new(
                    "too_many_params",
                    format!("more than {MAX_PARAMS} parameters"),
                ));
            }
            let (rk, rv) = match part.split_once('=') {
                Some((k, v)) => (k, v),
                None => (part, ""),
            };
            let key = percent_decode(rk, "key")?;
            let value = percent_decode(rv, "value")?;
            if key.is_empty() {
                return Err(QueryError::new("empty_key", format!("parameter {part:?} has no key")));
            }
            if key.len() > MAX_KEY_BYTES {
                return Err(QueryError::new(
                    "overlong_key",
                    format!("key is {} bytes (max {MAX_KEY_BYTES})", key.len()),
                ));
            }
            if value.len() > MAX_VALUE_BYTES {
                return Err(QueryError::new(
                    "overlong_value",
                    format!("value of {key:?} is {} bytes (max {MAX_VALUE_BYTES})", value.len()),
                ));
            }
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(QueryError::new(
                    "duplicate_param",
                    format!("parameter {key:?} given more than once"),
                ));
            }
            pairs.push((key, value));
        }
        Ok(Query { pairs })
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The value of `key` parsed as a `u64`; a present-but-unparsable
    /// value is a typed error, not a silent default.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, QueryError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| {
                QueryError::new("bad_number", format!("parameter {key:?}={v:?} is not a u64"))
            }),
        }
    }

    /// Rejects any parameter whose key is not in `allowed` — routes
    /// refuse what they do not understand instead of ignoring it.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), QueryError> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(QueryError::new(
                    "unknown_param",
                    format!("unknown parameter {k:?} (expected one of {allowed:?})"),
                ));
            }
        }
        Ok(())
    }

    /// Whether no parameters were given.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates `(key, value)` pairs in request order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// Decodes one `%`-escaped query part (`+` means space), rejecting bad
/// escapes, non-UTF-8 results, and control characters.
fn percent_decode(raw: &str, what: &str) -> Result<String, QueryError> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).ok_or_else(|| {
                    QueryError::new("bad_escape", format!("truncated %-escape in {what} {raw:?}"))
                })?;
                let hi = hex_val(hex[0]);
                let lo = hex_val(hex[1]);
                match (hi, lo) {
                    (Some(h), Some(l)) => out.push(h << 4 | l),
                    _ => {
                        return Err(QueryError::new(
                            "bad_escape",
                            format!("invalid %-escape in {what} {raw:?}"),
                        ))
                    }
                }
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    let s = String::from_utf8(out).map_err(|_| {
        QueryError::new("bad_utf8", format!("{what} {raw:?} does not decode to UTF-8"))
    })?;
    if s.chars().any(|c| (c as u32) < 0x20 || c == '\u{7f}') {
        return Err(QueryError::new(
            "control_char",
            format!("{what} {raw:?} decodes to a control character"),
        ));
    }
    Ok(s)
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_pairs_parse() {
        let q = Query::parse(Some("tenant=gzip&pc=0x10&around=3")).unwrap();
        assert_eq!(q.get("tenant"), Some("gzip"));
        assert_eq!(q.get("pc"), Some("0x10"));
        assert_eq!(q.get("around"), Some("3"));
        assert_eq!(q.get("nope"), None);
        assert!(!q.is_empty());
        assert_eq!(q.iter().count(), 3);
    }

    #[test]
    fn absent_and_empty_queries_are_empty() {
        assert!(Query::parse(None).unwrap().is_empty());
        assert!(Query::parse(Some("")).unwrap().is_empty());
        // Stray separators are tolerated, not errors.
        let q = Query::parse(Some("a=1&&b=2&")).unwrap();
        assert_eq!(q.get("a"), Some("1"));
        assert_eq!(q.get("b"), Some("2"));
    }

    #[test]
    fn percent_escapes_decode_and_validate() {
        let q = Query::parse(Some("name=a%20b%2Bc&plus=x+y")).unwrap();
        assert_eq!(q.get("name"), Some("a b+c"));
        assert_eq!(q.get("plus"), Some("x y"));

        for bad in ["x=%", "x=%2", "x=%zz", "x=%G1", "%41%=v"] {
            let e = Query::parse(Some(bad)).unwrap_err();
            assert_eq!(e.kind, "bad_escape", "{bad:?} must be a bad escape, got {e:?}");
        }
        // Decodes to invalid UTF-8.
        assert_eq!(Query::parse(Some("x=%ff%fe")).unwrap_err().kind, "bad_utf8");
        // Decodes to a control character (header-injection shaped).
        assert_eq!(Query::parse(Some("x=%0d%0aSet-Cookie:1")).unwrap_err().kind, "control_char");
    }

    #[test]
    fn duplicates_are_rejected() {
        let e = Query::parse(Some("since=1&since=2")).unwrap_err();
        assert_eq!(e.kind, "duplicate_param");
        assert!(e.detail.contains("since"));
        // Same key via an escape is still the same key.
        assert_eq!(Query::parse(Some("a=1&%61=2")).unwrap_err().kind, "duplicate_param");
    }

    #[test]
    fn size_bounds_are_enforced() {
        let long = "x".repeat(MAX_QUERY_BYTES + 1);
        assert_eq!(Query::parse(Some(&long)).unwrap_err().kind, "overlong_query");

        let many: String =
            (0..MAX_PARAMS + 1).map(|i| format!("k{i}=v&")).collect::<Vec<_>>().join("");
        assert_eq!(Query::parse(Some(&many)).unwrap_err().kind, "too_many_params");

        let key = format!("{}=v", "k".repeat(MAX_KEY_BYTES + 1));
        assert_eq!(Query::parse(Some(&key)).unwrap_err().kind, "overlong_key");

        let val = format!("k={}", "v".repeat(MAX_VALUE_BYTES + 1));
        assert_eq!(Query::parse(Some(&val)).unwrap_err().kind, "overlong_value");

        assert_eq!(Query::parse(Some("=v")).unwrap_err().kind, "empty_key");
    }

    #[test]
    fn numbers_parse_or_fail_typed() {
        let q = Query::parse(Some("since=42&bad=12x&neg=-1")).unwrap();
        assert_eq!(q.get_u64("since").unwrap(), Some(42));
        assert_eq!(q.get_u64("absent").unwrap(), None);
        assert_eq!(q.get_u64("bad").unwrap_err().kind, "bad_number");
        assert_eq!(q.get_u64("neg").unwrap_err().kind, "bad_number");
    }

    #[test]
    fn unknown_params_are_refused() {
        let q = Query::parse(Some("since=1&extra=2")).unwrap();
        assert!(q.expect_only(&["since", "extra"]).is_ok());
        let e = q.expect_only(&["since"]).unwrap_err();
        assert_eq!(e.kind, "unknown_param");
        assert!(e.detail.contains("extra"));
    }

    #[test]
    fn error_bodies_are_json() {
        let e = Query::parse(Some("a=1&a=2")).unwrap_err();
        let body = e.to_json();
        assert!(body.starts_with("{\"error\": {\"kind\": \"duplicate_param\""));
        assert!(body.contains("\"detail\": \""));
        // Escaping: a detail with a quote stays valid JSON.
        let e = QueryError::new("test", "say \"hi\"\n");
        assert_eq!(
            e.to_json(),
            "{\"error\": {\"kind\": \"test\", \"detail\": \"say \\\"hi\\\"\\n\"}}"
        );
    }
}
