//! Web documents: the state a Web object encapsulates.
//!
//! "A Web document consists of a collection of HTML pages, together with
//! files for images, applets, etc., which jointly comprise the state of
//! the distributed shared object" (§2).

use std::collections::BTreeMap;

use bytes::Bytes;
use globe_wire::wire_record;

/// One page (or embedded resource) of a Web document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// MIME type, e.g. `text/html`.
    pub content_type: String,
    /// Raw body bytes.
    pub body: Bytes,
}

impl Page {
    /// An HTML page.
    pub fn html(body: impl Into<Bytes>) -> Self {
        Page {
            content_type: "text/html".to_string(),
            body: body.into(),
        }
    }

    /// A page with an explicit content type.
    pub fn with_type(content_type: &str, body: impl Into<Bytes>) -> Self {
        Page {
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }
}

wire_record!(Page { content_type, body });

/// The complete page set of a Web document.
///
/// # Examples
///
/// ```
/// use globe_web::{Page, WebDocument};
///
/// let mut doc = WebDocument::new();
/// doc.put("index.html", Page::html("<h1>ICDCS'98</h1>"));
/// assert_eq!(doc.len(), 1);
/// assert!(doc.page("index.html").is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WebDocument {
    pages: BTreeMap<String, Page>,
}

impl WebDocument {
    /// An empty document.
    pub fn new() -> Self {
        WebDocument::default()
    }

    /// Looks up a page.
    pub fn page(&self, path: &str) -> Option<&Page> {
        self.pages.get(path)
    }

    /// Inserts or replaces a page, returning the previous one.
    pub fn put(&mut self, path: impl Into<String>, page: Page) -> Option<Page> {
        self.pages.insert(path.into(), page)
    }

    /// Appends bytes to a page's body, creating the page (as HTML) if
    /// absent. This is the paper's *incremental update*.
    pub fn append(&mut self, path: &str, extra: &[u8]) {
        match self.pages.get_mut(path) {
            Some(page) => {
                let mut body = Vec::with_capacity(page.body.len() + extra.len());
                body.extend_from_slice(&page.body);
                body.extend_from_slice(extra);
                page.body = Bytes::from(body);
            }
            None => {
                self.pages
                    .insert(path.to_string(), Page::html(Bytes::copy_from_slice(extra)));
            }
        }
    }

    /// Removes a page.
    pub fn remove(&mut self, path: &str) -> Option<Page> {
        self.pages.remove(path)
    }

    /// Page paths, in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> + '_ {
        self.pages.keys().map(String::as_str)
    }

    /// Iterates over `(path, page)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Page)> + '_ {
        self.pages.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the document has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total body bytes across all pages.
    pub fn total_bytes(&self) -> usize {
        self.pages.values().map(|p| p.body.len()).sum()
    }
}

wire_record!(WebDocument { pages });

impl FromIterator<(String, Page)> for WebDocument {
    fn from_iter<I: IntoIterator<Item = (String, Page)>>(iter: I) -> Self {
        WebDocument {
            pages: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let mut doc = WebDocument::new();
        assert!(doc.put("a.html", Page::html("one")).is_none());
        assert!(doc.put("a.html", Page::html("two")).is_some());
        assert_eq!(doc.page("a.html").unwrap().body, Bytes::from("two"));
        assert_eq!(doc.remove("a.html").unwrap().body, Bytes::from("two"));
        assert!(doc.is_empty());
    }

    #[test]
    fn append_is_incremental() {
        let mut doc = WebDocument::new();
        doc.append("news.html", b"first. ");
        doc.append("news.html", b"second.");
        assert_eq!(
            doc.page("news.html").unwrap().body,
            Bytes::from("first. second.")
        );
    }

    #[test]
    fn accounting() {
        let mut doc = WebDocument::new();
        doc.put("a", Page::html("12345"));
        doc.put("b", Page::with_type("image/png", vec![0u8; 10]));
        assert_eq!(doc.len(), 2);
        assert_eq!(doc.total_bytes(), 15);
        assert_eq!(doc.paths().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn wire_roundtrip() {
        let mut doc = WebDocument::new();
        doc.put("index.html", Page::html("<p>hi</p>"));
        doc.put("logo.png", Page::with_type("image/png", vec![1, 2, 3]));
        let bytes = globe_wire::to_bytes(&doc);
        assert_eq!(globe_wire::from_bytes::<WebDocument>(&bytes).unwrap(), doc);
        // Path, then content type, then body, per page in path order.
        assert_eq!(
            &bytes[..],
            b"\x02\x0aindex.html\x09text/html\x09<p>hi</p>\x08logo.png\x09image/png\x03\x01\x02\x03"
        );
    }
}
