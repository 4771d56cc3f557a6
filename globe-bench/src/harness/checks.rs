//! Correctness checks every repeat must pass before its numbers count.
//!
//! The checks take plain evidence — the recorded history, each store's
//! final document as read through the public API, what the generator
//! saw acknowledged — so the self-test can hand them forged evidence
//! and watch them bite.

use bytes::Bytes;
use globe_coherence::{check_object_model, fnv1a, History, ObjectModel};
use globe_core::{TraceChecker, TraceSnapshot};
use globe_web::WebDocument;

use super::gen::{self, PAGES};

/// What one repeat left behind.
pub struct Evidence<'a> {
    /// The run's recorded execution.
    pub history: &'a History,
    /// The object's coherence model.
    pub model: ObjectModel,
    /// `(label, get_document reply)` of every permanent store after the
    /// settle, the home (current sequencer) first.
    pub documents: &'a [(String, Bytes)],
    /// Per page, the highest write number the generator saw acked.
    pub acked: &'a [u64; PAGES],
    /// Body size of every write, to regenerate a page's expected bytes.
    pub body_bytes: usize,
    /// How many members of the final membership view claim to be home.
    pub homes: usize,
    /// The flight-recorder snapshot, in traced runs.
    pub trace: Option<&'a TraceSnapshot>,
}

/// Runs every check; the first failure fails the repeat.
///
/// # Errors
///
/// A one-line description of what was violated.
pub fn check(e: &Evidence<'_>) -> Result<(), String> {
    check_object_model(e.history, e.model)
        .map_err(|v| format!("history violates {}: {v}", e.model.paper_name()))?;

    let Some((home_label, home_doc)) = e.documents.first() else {
        return Err("no store documents were collected".to_string());
    };
    let home_digest = fnv1a(home_doc);
    for (label, doc) in &e.documents[1..] {
        let digest = fnv1a(doc);
        if digest != home_digest {
            return Err(format!(
                "final states diverge: {home_label}={home_digest:#018x} vs {label}={digest:#018x}"
            ));
        }
    }

    let doc: WebDocument = globe_wire::from_bytes(home_doc)
        .map_err(|err| format!("{home_label} returned an undecodable document: {err}"))?;
    for (page, &acked) in e.acked.iter().enumerate() {
        let name = gen::page_name(page);
        let Some(stored) = doc.page(&name) else {
            return Err(format!("{name} is missing at {home_label}"));
        };
        let Some(seq) = gen::seq_of(&stored.body) else {
            return Err(format!(
                "{name} at {home_label} holds a body no write produced"
            ));
        };
        // A later write may have landed without its ack being seen (the
        // fault workload); an earlier one means an acked write was lost.
        if seq < acked {
            return Err(format!(
                "acked write lost: {name} at {home_label} holds write {seq}, but write {acked} was acknowledged"
            ));
        }
        if stored.body[..] != gen::body(seq, e.body_bytes)[..] {
            return Err(format!("{name} at {home_label} is corrupt (write {seq})"));
        }
    }

    if e.homes != 1 {
        return Err(format!("{} stores claim to be home, expected 1", e.homes));
    }

    if let Some(trace) = e.trace {
        if trace.dropped != 0 {
            return Err(format!(
                "flight recorder dropped {} events (ring capacity {})",
                trace.dropped, trace.capacity
            ));
        }
        let violations = TraceChecker::check(trace);
        if let Some(first) = violations.first() {
            return Err(format!(
                "{} trace invariant violation(s), first: {first:?}",
                violations.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use globe_coherence::{ClientId, StoreId, VersionVector, WriteId};
    use globe_net::SimTime;
    use globe_web::Page;

    const BODY: usize = 64;

    /// A document whose page `p` holds write `seqs[p]`.
    fn document(seqs: &[u64; PAGES]) -> Bytes {
        let mut doc = WebDocument::new();
        for (page, &seq) in seqs.iter().enumerate() {
            doc.put(gen::page_name(page), Page::html(gen::body(seq, BODY)));
        }
        globe_wire::to_bytes(&doc)
    }

    /// One client writing 1..=n to page 0, each applied at two stores in
    /// order: a history every model accepts.
    fn history(n: u64) -> History {
        let mut h = History::new();
        let client = ClientId::new(1);
        for seq in 1..=n {
            let wid = WriteId::new(client, seq);
            let at = SimTime::from_millis(seq);
            h.record_write(
                at,
                client,
                StoreId::new(0),
                "page00.html",
                wid,
                VersionVector::new(),
            );
            h.record_apply(at, StoreId::new(0), wid, "page00.html");
            h.record_apply(at, StoreId::new(1), wid, "page00.html");
        }
        h
    }

    fn evidence<'a>(
        history: &'a History,
        documents: &'a [(String, Bytes)],
        acked: &'a [u64; PAGES],
    ) -> Evidence<'a> {
        Evidence {
            history,
            model: ObjectModel::Fifo,
            documents,
            acked,
            body_bytes: BODY,
            homes: 1,
            trace: None,
        }
    }

    #[test]
    fn consistent_evidence_passes() {
        let h = history(5);
        let seqs = [5u64; PAGES];
        let docs = vec![
            ("home".to_string(), document(&seqs)),
            ("mirror1".to_string(), document(&seqs)),
        ];
        assert_eq!(check(&evidence(&h, &docs, &seqs)), Ok(()));
        // A later unacked write having landed is fine.
        let acked = [3u64; PAGES];
        assert_eq!(check(&evidence(&h, &docs, &acked)), Ok(()));
    }

    #[test]
    fn a_lost_acked_write_fails_the_run() {
        let h = history(5);
        let mut stored = [5u64; PAGES];
        stored[3] = 2; // page 3 rolled back to write 2 …
        let docs = vec![("home".to_string(), document(&stored))];
        let acked = [5u64; PAGES]; // … though write 5 was acknowledged
        let err = check(&evidence(&h, &docs, &acked)).unwrap_err();
        assert!(err.contains("acked write lost"), "{err}");
        assert!(err.contains("page03.html"), "{err}");
    }

    #[test]
    fn diverging_digests_fail_the_run() {
        let h = history(5);
        let seqs = [5u64; PAGES];
        let mut other = seqs;
        other[0] = 4;
        let docs = vec![
            ("home".to_string(), document(&seqs)),
            ("mirror2".to_string(), document(&other)),
        ];
        let err = check(&evidence(&h, &docs, &seqs)).unwrap_err();
        assert!(err.contains("diverge") && err.contains("mirror2"), "{err}");
    }

    #[test]
    fn a_history_that_breaks_the_model_fails_the_run() {
        // Store 1 applies the client's writes out of order: FIFO violated.
        let mut h = History::new();
        let client = ClientId::new(1);
        for seq in [1u64, 2] {
            let wid = WriteId::new(client, seq);
            h.record_write(
                SimTime::from_millis(seq),
                client,
                StoreId::new(0),
                "page00.html",
                wid,
                VersionVector::new(),
            );
        }
        for seq in [2u64, 1] {
            h.record_apply(
                SimTime::from_millis(10),
                StoreId::new(1),
                WriteId::new(client, seq),
                "page00.html",
            );
        }
        let seqs = [2u64; PAGES];
        let docs = vec![("home".to_string(), document(&seqs))];
        let err = check(&evidence(&h, &docs, &seqs)).unwrap_err();
        assert!(err.contains("violates"), "{err}");
    }

    #[test]
    fn two_homes_or_a_corrupt_page_fail_the_run() {
        let h = history(1);
        let seqs = [1u64; PAGES];
        let docs = vec![("home".to_string(), document(&seqs))];
        let mut e = evidence(&h, &docs, &seqs);
        e.homes = 2;
        assert!(check(&e).unwrap_err().contains("claim to be home"));

        let mut doc = WebDocument::new();
        for page in 0..PAGES {
            let mut body = gen::body(1, BODY);
            body[BODY - 1] = b'!';
            doc.put(gen::page_name(page), Page::html(body));
        }
        let docs = vec![("home".to_string(), globe_wire::to_bytes(&doc))];
        assert!(check(&evidence(&h, &docs, &seqs))
            .unwrap_err()
            .contains("corrupt"));
    }
}
