//! A minimal, dependency-free XML reader — just enough for JSDL
//! documents: elements, attributes, text, comments, declarations,
//! namespace-prefixed names and the five predefined entities.
//!
//! Not a general-purpose XML parser (no DTDs, no CDATA, no processing
//! instructions beyond the prolog), but strict about what it does
//! accept: mismatched or unterminated tags are errors, not warnings.
//!
//! The tree borrows from the document: names are slices of it, and text
//! and attribute values are too unless an entity reference or a split
//! text run forces a copy, so parsing a JSDL job allocates only the
//! child vectors.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// A parsed XML element: local name (namespace prefix stripped),
/// attributes, child elements and accumulated text content.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element<'a> {
    /// Local element name (after any `prefix:`).
    pub name: &'a str,
    /// Attributes as `(local name, value)` pairs, in document order.
    pub attributes: Vec<(&'a str, Cow<'a, str>)>,
    /// Child elements, in document order.
    pub children: Vec<Element<'a>>,
    /// Concatenated, whitespace-trimmed text directly inside the element.
    pub text: Cow<'a, str>,
}

impl<'a> Element<'a> {
    /// First child with the given local name.
    pub fn child(&self, name: &str) -> Option<&Element<'a>> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Descends through a path of child names.
    pub fn descend(&self, path: &[&str]) -> Option<&Element<'a>> {
        let mut here = self;
        for name in path {
            here = here.child(name)?;
        }
        Some(here)
    }

    /// Text of a child element, if present and non-empty.
    pub fn child_text(&self, name: &str) -> Option<&str> {
        let text = &self.child(name)?.text;
        if text.is_empty() {
            None
        } else {
            Some(text)
        }
    }

    /// Value of an attribute by local name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_ref())
    }
}

/// Error raised when a document cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl XmlError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        XmlError { message: message.into(), offset }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for XmlError {}

/// Parses a document and returns its root element.
///
/// # Errors
///
/// Returns [`XmlError`] on malformed input: unterminated or mismatched
/// tags, garbage outside the root element, bad attribute syntax, or an
/// unknown entity reference.
pub fn parse(input: &str) -> Result<Element<'_>, XmlError> {
    let mut parser = Parser { input, pos: 0 };
    parser.skip_prolog()?;
    let root = parser.element()?;
    parser.skip_misc()?;
    if parser.pos < parser.input.len() {
        return Err(XmlError::new("content after the root element", parser.pos));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.bump(token.len());
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), XmlError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(XmlError::new(format!("expected `{token}`"), self.pos))
        }
    }

    /// Skips the `<?xml ...?>` declaration, comments and whitespace.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_whitespace();
        if self.rest().starts_with("<?xml") {
            match self.rest().find("?>") {
                Some(end) => self.bump(end + 2),
                None => return Err(XmlError::new("unterminated xml declaration", self.pos)),
            }
        }
        self.skip_misc()
    }

    /// Skips whitespace and comments.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.rest().starts_with("<!--") {
                match self.rest().find("-->") {
                    Some(end) => self.bump(end + 3),
                    None => return Err(XmlError::new("unterminated comment", self.pos)),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        let mut end = 0;
        // Where the local part starts: JSDL documents qualify everything,
        // and only what follows the last `:` is kept.
        let mut local = 0;
        // Names are most of a JSDL document's bytes, so ASCII — all of it
        // in practice — is classified bytewise; `char` decides the rest.
        while let Some(&byte) = rest.as_bytes().get(end) {
            match byte {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' | b'.' => end += 1,
                b':' => {
                    end += 1;
                    local = end;
                }
                0x80.. => match rest[end..].chars().next() {
                    Some(c) if c.is_alphanumeric() => end += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
        if end == 0 {
            return Err(XmlError::new("expected a name", self.pos));
        }
        self.bump(end);
        Ok(&rest[local..end])
    }

    fn attribute(&mut self) -> Result<(&'a str, Cow<'a, str>), XmlError> {
        let name = self.name()?;
        self.skip_whitespace();
        self.expect("=")?;
        self.skip_whitespace();
        let quote = match self.rest().chars().next() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(XmlError::new("expected a quoted attribute value", self.pos)),
        };
        self.bump(1);
        let rest = self.rest();
        let end = rest
            .find(quote)
            .ok_or_else(|| XmlError::new("unterminated attribute value", self.pos))?;
        let value = unescape(&rest[..end], self.pos)?;
        self.bump(end + 1);
        Ok((name, value))
    }

    fn element(&mut self) -> Result<Element<'a>, XmlError> {
        self.expect("<")?;
        let name = self.name()?;
        let mut element = Element { name, ..Element::default() };

        // Attributes until `>` or `/>`.
        loop {
            self.skip_whitespace();
            if self.eat("/>") {
                return Ok(element);
            }
            if self.eat(">") {
                break;
            }
            element.attributes.push(self.attribute()?);
        }

        // Content: text, children, comments, until `</name>`.
        let mut text: Cow<'a, str> = Cow::Borrowed("");
        loop {
            if self.rest().is_empty() {
                return Err(XmlError::new(
                    format!("unterminated element <{}>", element.name),
                    self.pos,
                ));
            }
            if self.rest().starts_with("<!--") {
                self.skip_misc()?;
                continue;
            }
            if self.rest().starts_with("</") {
                self.bump(2);
                let closing = self.name()?;
                if closing != element.name {
                    return Err(XmlError::new(
                        format!("mismatched </{closing}> for <{}>", element.name),
                        self.pos,
                    ));
                }
                self.skip_whitespace();
                self.expect(">")?;
                element.text = match text {
                    Cow::Borrowed(run) => Cow::Borrowed(run.trim()),
                    Cow::Owned(runs) => Cow::Owned(runs.trim().to_string()),
                };
                return Ok(element);
            }
            if self.rest().starts_with('<') {
                element.children.push(self.element()?);
                continue;
            }
            let rest = self.rest();
            let end = rest.find('<').unwrap_or(rest.len());
            let run = unescape(&rest[..end], self.pos)?;
            // Leading white space is trimmed in the end anyway, so the
            // indentation between child elements never forces a copy.
            if text.trim_start().is_empty() {
                text = run;
            } else {
                text.to_mut().push_str(&run);
            }
            self.bump(end);
        }
    }
}

/// Resolves the five predefined entity references.
fn unescape(raw: &str, offset: usize) -> Result<Cow<'_, str>, XmlError> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi =
            rest.find(';').ok_or_else(|| XmlError::new("unterminated entity reference", offset))?;
        match &rest[..=semi] {
            "&lt;" => out.push('<'),
            "&gt;" => out.push('>'),
            "&amp;" => out.push('&'),
            "&quot;" => out.push('"'),
            "&apos;" => out.push('\''),
            other => {
                return Err(XmlError::new(format!("unknown entity `{other}`"), offset));
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Escapes text for inclusion in an XML document.
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    escape_into(raw, &mut out);
    out
}

/// Appends `raw`, escaped, to `out`.
pub(crate) fn escape_into(raw: &str, out: &mut String) {
    for c in raw.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements_and_text() {
        let root = parse("<a><b>hello</b><c><d>1</d><d>2</d></c></a>").unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.child_text("b"), Some("hello"));
        let c = root.child("c").unwrap();
        let ds: Vec<&str> = c.children.iter().map(|d| d.text.as_ref()).collect();
        assert_eq!(ds, ["1", "2"]);
    }

    #[test]
    fn strips_namespace_prefixes() {
        let root = parse(
            r#"<jsdl:JobDefinition xmlns:jsdl="urn:x"><jsdl:JobDescription/></jsdl:JobDefinition>"#,
        )
        .unwrap();
        assert_eq!(root.name, "JobDefinition");
        assert_eq!(root.attribute("jsdl"), Some("urn:x")); // xmlns:jsdl -> local name jsdl
        assert!(root.child("JobDescription").is_some());
    }

    #[test]
    fn names_may_be_any_alphanumerics_not_just_ascii() {
        let root = parse("<préfixe:naïve_1 clé=\"v\"><語/></préfixe:naïve_1>").unwrap();
        assert_eq!(root.name, "naïve_1");
        assert_eq!(root.attribute("clé"), Some("v"));
        assert_eq!(root.children[0].name, "語");
        // A non-alphanumeric character ends the name wherever it sits.
        assert_eq!(parse("<a→/>").unwrap_err().offset, 2);
    }

    #[test]
    fn handles_prolog_comments_and_self_closing() {
        let doc = "<?xml version=\"1.0\"?>\n<!-- top --><a><!-- inner --><b/></a><!-- after -->";
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "a");
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn unescapes_entities_in_text_and_attributes() {
        let root = parse(r#"<a k="x &amp; y">1 &lt; 2</a>"#).unwrap();
        assert_eq!(root.text, "1 < 2");
        assert_eq!(root.attribute("k"), Some("x & y"));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = r#"<tag attr="a&b">'text'</tag>"#;
        let doc = format!("<a>{}</a>", escape(nasty));
        let root = parse(&doc).unwrap();
        assert_eq!(root.text, nasty);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched"), "{err}");
    }

    #[test]
    fn rejects_unterminated_elements() {
        assert!(parse("<a><b>").is_err());
        assert!(parse("<a").is_err());
        assert!(parse("<!-- only a comment -->").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("<a/>extra").unwrap_err();
        assert!(err.to_string().contains("after the root"), "{err}");
    }

    #[test]
    fn rejects_unknown_entities() {
        assert!(parse("<a>&nbsp;</a>").is_err());
    }

    #[test]
    fn descend_walks_paths() {
        let root = parse("<a><b><c><d>deep</d></c></b></a>").unwrap();
        assert_eq!(root.descend(&["b", "c", "d"]).unwrap().text, "deep");
        assert!(root.descend(&["b", "x"]).is_none());
    }

    #[test]
    fn whitespace_only_text_is_empty() {
        let root = parse("<a>\n   <b/>\n</a>").unwrap();
        assert_eq!(root.text, "");
        assert_eq!(root.child_text("b"), None);
    }

    #[test]
    fn borrows_from_the_document_unless_it_must_copy() {
        let root = parse(r#"<p:a k="v" e="&lt;"> plain <b/>tail<c>x &amp; y</c></p:a>"#).unwrap();
        assert!(matches!(root.attributes[0], ("k", Cow::Borrowed("v"))));
        assert!(matches!(root.attributes[1], ("e", Cow::Owned(_))));
        // Two text runs around <b/> concatenate, so the parent copies...
        assert_eq!(root.text, "plain tail");
        assert!(matches!(root.text, Cow::Owned(_)));
        // ...a single run is a trimmed slice, an entity forces a copy.
        let doc = "<a>  one run  </a>";
        assert!(matches!(parse(doc).unwrap().text, Cow::Borrowed("one run")));
        assert!(matches!(root.child("c").unwrap().text, Cow::Owned(_)));
        // Indentation between children is not text worth copying.
        let doc = "<a>\n  <b/>\n  <c/>\n</a>";
        assert!(matches!(parse(doc).unwrap().text, Cow::Borrowed("")));
        assert_eq!(parse("<a> <b/> x <c/> </a>").unwrap().text, "x");
    }

    #[test]
    fn errors_carry_the_offset_they_were_detected_at() {
        let offset = |doc: &str| parse(doc).unwrap_err().offset;
        assert_eq!(offset("<a><b></a></b>"), 9);
        assert_eq!(offset("<a><b>"), 6);
        assert_eq!(offset("<a k=v/>"), 5);
        assert_eq!(offset("<a k=\"v/>"), 6);
        assert_eq!(offset("<a>x &nbsp; y</a>"), 3);
        assert_eq!(offset("<a/>extra"), 4);
        assert_eq!(offset("  <?xml version=\"1.0\""), 2);
    }
}
