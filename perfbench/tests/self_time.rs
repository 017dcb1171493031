//! Span self time: a span's duration minus the part of it that its child
//! spans cover (overlaps counted once, children clipped to the parent).

use std::time::Instant;

use perfbench::trace::{self_time_by_name, self_times, Span, SpanLog};

fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        req: 1,
        name,
        start,
        end,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(1, 0, "loadgen.request", 0, 100),
        span(2, 1, "protocol.encode", 10, 30),
        span(3, 1, "net.send", 20, 50), // overlaps encode: [10, 50) counted once
        span(4, 1, "net.wait", 90, 120), // clipped to the parent's end
        span(5, 3, "inner", 25, 35),
    ];
    let t = self_times(&spans);
    assert_eq!(t[0], 100 - 40 - 10);
    assert_eq!(t[1], 20, "a leaf's self time is its duration");
    assert_eq!(
        t[2],
        30 - 10,
        "grandchildren count against their parent only"
    );
    assert_eq!(t[3], 30);
    assert_eq!(t[4], 10);
}

#[test]
fn self_time_by_name_takes_medians() {
    let spans = vec![
        span(1, 0, "core.put", 0, 10),
        span(2, 0, "core.put", 0, 30),
        span(3, 0, "core.put", 0, 20),
    ];
    let by = self_time_by_name(&spans);
    assert_eq!(by["core.put"], (3, 20.0));
}

#[test]
fn a_disabled_log_records_nothing_and_ids_link_children() {
    let mut off = SpanLog::new(false, Instant::now(), 1);
    let o = off.begin("core.put", 1, 0);
    off.end(o);
    assert!(off.spans().is_empty());

    let mut on = SpanLog::new(true, Instant::now(), 1);
    let root = on.begin("loadgen.request", 7, 0);
    let child = on.begin("net.send", 7, root.id);
    on.end(child);
    on.end(root);
    let s = on.spans();
    assert_eq!(s.len(), 2);
    assert_eq!(s[0].parent, s[1].id);
    assert_eq!((s[0].req, s[1].req), (7, 7));
    assert!(s[1].start <= s[0].start && s[0].end <= s[1].end);
}
