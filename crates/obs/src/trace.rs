//! Chrome trace-event export: renders the event ring as a
//! `trace_<id>.json` timeline loadable in Perfetto (`ui.perfetto.dev`)
//! or `chrome://tracing`.
//!
//! Two synthetic processes structure the view:
//!
//! - **pid 1 "spans"** — one track per recording thread, with a
//!   complete-event (`ph:"X"`) slice for every shallow span open/close
//!   pair mirrored into the ring by the tracer (see
//!   `SPAN_EVENT_MAX_DEPTH` in the span module).
//! - **pid 2 "lanes"** — one track per batched Monte-Carlo lane. Each
//!   seat→retire interval renders as an `mc_sample` slice carrying the
//!   die index, the number of accepted steps and the Newton iterations
//!   spent; pivot-growth re-analyses appear as instant events, and
//!   per-lane 0/1 occupancy counters plus the engine's sampled
//!   `lanes busy` counter make refill gaps visible.
//!
//! Lane events carry their engine session ([`lane_operand`]), so engines
//! running at the same time — the two runs of a ΔT measurement, two
//! daemon workers — never close each other's slices. Each session gets
//! a display slot: sessions that overlap in time get distinct slots,
//! and sessions run back to back share slot 0's tracks (`lane 3`,
//! `lane3 busy`, `lanes busy`); a later slot's names carry a `#slot`
//! suffix.
//!
//! Slices still open when the ring was snapshotted (a hung lane, an
//! unclosed span) are emitted to the last seen timestamp and tagged
//! `"unfinished": true` rather than dropped.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use crate::event::{event_ring, lane_operand, split_lane_operand, Event, EventKind};
use crate::json::Json;
use crate::span;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn us(t_ns: u64) -> Json {
    Json::Num(t_ns as f64 / 1e3)
}

const PID_SPANS: f64 = 1.0;
const PID_LANES: f64 = 2.0;

fn meta_process(pid: f64, name: &str) -> Json {
    obj(vec![
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Num(pid)),
        ("tid", Json::Num(0.0)),
        ("args", obj(vec![("name", Json::Str(name.into()))])),
    ])
}

fn meta_thread(pid: f64, tid: u32, name: String) -> Json {
    obj(vec![
        ("name", Json::Str("thread_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Num(pid)),
        ("tid", Json::Num(f64::from(tid))),
        ("args", obj(vec![("name", Json::Str(name))])),
    ])
}

fn slice(
    name: &str,
    cat: &str,
    pid: f64,
    tid: u32,
    t0_ns: u64,
    t1_ns: u64,
    args: Vec<(&str, Json)>,
) -> Json {
    obj(vec![
        ("name", Json::Str(name.into())),
        ("cat", Json::Str(cat.into())),
        ("ph", Json::Str("X".into())),
        ("ts", us(t0_ns)),
        ("dur", us(t1_ns.saturating_sub(t0_ns))),
        ("pid", Json::Num(pid)),
        ("tid", Json::Num(f64::from(tid))),
        ("args", obj(args)),
    ])
}

fn counter(name: String, tid: u32, t_ns: u64, key: &str, value: f64) -> Json {
    obj(vec![
        ("name", Json::Str(name)),
        ("ph", Json::Str("C".into())),
        ("ts", us(t_ns)),
        ("pid", Json::Num(PID_LANES)),
        ("tid", Json::Num(f64::from(tid))),
        ("args", obj(vec![(key, Json::Num(value))])),
    ])
}

/// A lane interval being assembled between a seat/refill and its
/// retire.
struct OpenLane {
    die: u32,
    t0_ns: u64,
    steps: u64,
    newton_iters: u64,
}

fn lane_slice(track: u32, open: OpenLane, t1_ns: u64, unfinished: bool) -> Json {
    let mut args = vec![
        ("die", Json::Num(f64::from(open.die))),
        ("steps", Json::Num(open.steps as f64)),
        ("newton_iters", Json::Num(open.newton_iters as f64)),
    ];
    if unfinished {
        args.push(("unfinished", Json::Bool(true)));
    }
    slice(
        "mc_sample",
        "lane",
        PID_LANES,
        track,
        open.t0_ns,
        t1_ns,
        args,
    )
}

/// The engine session of a lane-timeline event.
fn session_of(e: &Event) -> Option<u32> {
    match e.kind {
        EventKind::LaneSeat
        | EventKind::LaneRetire
        | EventKind::LaneRefill
        | EventKind::StepAccepted
        | EventKind::Reanalysis => Some(split_lane_operand(e.a).0),
        EventKind::Occupancy => Some(split_lane_operand(e.b).0),
        _ => None,
    }
}

/// Display slot per session over time-sorted `events`: each session
/// takes the lowest slot whose previous session ended by its first
/// event (greedy interval colouring, so the slot count is the largest
/// number of sessions ever live at once).
fn session_slots(events: &[Event]) -> HashMap<u32, u32> {
    let mut spans: HashMap<u32, (u64, u64)> = HashMap::new();
    for e in events {
        if let Some(session) = session_of(e) {
            spans.entry(session).or_insert((e.t_ns, e.t_ns)).1 = e.t_ns;
        }
    }
    let mut order: Vec<(u32, (u64, u64))> = spans.into_iter().collect();
    order.sort_unstable_by_key(|&(session, (t0, _))| (t0, session));
    let mut slot_end: Vec<u64> = Vec::new();
    order
        .into_iter()
        .map(|(session, (t0, t1))| {
            let slot = match slot_end.iter().position(|&end| end <= t0) {
                Some(free) => free,
                None => {
                    slot_end.push(0);
                    slot_end.len() - 1
                }
            };
            slot_end[slot] = t1;
            (session, slot as u32)
        })
        .collect()
}

/// Name suffix of a display slot's tracks: none for slot 0.
fn slot_suffix(slot: u32) -> String {
    if slot == 0 {
        String::new()
    } else {
        format!(" #{slot}")
    }
}

/// Renders the current contents of the global event ring as a Chrome
/// trace-event document (`{"traceEvents": [...], ...}`).
///
/// Call after the run of interest, before the next [`crate::reset`];
/// interned span names survive a reset, ring events do not.
pub fn render_chrome_trace() -> Json {
    let mut events: Vec<Event> = event_ring().snapshot();
    // Stable by timestamp: ring claim order breaks ties, so a zero-
    // length span's begin still precedes its end.
    events.sort_by_key(|e| e.t_ns);
    let names = span::path_names();
    let name_of = |id: u32| -> String {
        names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("span#{id}"))
    };
    let last_ns = events.last().map_or(0, |e| e.t_ns);

    let mut out: Vec<Json> = vec![
        meta_process(PID_SPANS, "spans"),
        meta_process(PID_LANES, "lanes"),
    ];
    let mut span_tids: Vec<u32> = Vec::new();
    // Lane tracks as `lane_operand(slot, lane)` ids.
    let mut tracks: Vec<u32> = Vec::new();
    // Per-thread stacks of open (path id, t_ns) span frames.
    let mut span_stacks: HashMap<u32, Vec<(u32, u64)>> = Default::default();
    // Open interval per (session, lane) operand.
    let mut open_lanes: HashMap<u32, OpenLane> = Default::default();
    let slots = session_slots(&events);
    // The display track of a (session, lane) operand, noted on first use.
    let mut track_of = |operand: u32| -> u32 {
        let (session, lane) = split_lane_operand(operand);
        let track = lane_operand(slots[&session], lane as usize);
        if !tracks.contains(&track) {
            tracks.push(track);
        }
        track
    };
    let busy_counter = |track: u32, t_ns: u64, busy: f64| {
        let (slot, lane) = split_lane_operand(track);
        counter(
            format!("lane{lane} busy{}", slot_suffix(slot)),
            track,
            t_ns,
            "busy",
            busy,
        )
    };

    for e in &events {
        match e.kind {
            EventKind::SpanBegin => {
                if !span_tids.contains(&e.b) {
                    span_tids.push(e.b);
                }
                span_stacks.entry(e.b).or_default().push((e.a, e.t_ns));
            }
            EventKind::SpanEnd => {
                let stack = span_stacks.entry(e.b).or_default();
                // Well-nested per thread by construction; an end whose
                // begin was dropped in overflow finds no frame and is
                // skipped.
                if let Some(pos) = stack.iter().rposition(|&(id, _)| id == e.a) {
                    let (id, t0) = stack.remove(pos);
                    out.push(slice(
                        &name_of(id),
                        "span",
                        PID_SPANS,
                        e.b,
                        t0,
                        e.t_ns,
                        vec![],
                    ));
                }
            }
            EventKind::LaneSeat | EventKind::LaneRefill => {
                let track = track_of(e.a);
                if let Some(open) = open_lanes.remove(&e.a) {
                    // Retire was dropped: close the stale interval here.
                    out.push(lane_slice(track, open, e.t_ns, true));
                } else {
                    out.push(busy_counter(track, e.t_ns, 1.0));
                }
                open_lanes.insert(
                    e.a,
                    OpenLane {
                        die: e.b,
                        t0_ns: e.t_ns,
                        steps: 0,
                        newton_iters: 0,
                    },
                );
            }
            EventKind::LaneRetire => {
                let track = track_of(e.a);
                if let Some(open) = open_lanes.remove(&e.a) {
                    out.push(lane_slice(track, open, e.t_ns, false));
                }
                out.push(busy_counter(track, e.t_ns, 0.0));
            }
            EventKind::StepAccepted => {
                if let Some(open) = open_lanes.get_mut(&e.a) {
                    open.steps += 1;
                    open.newton_iters += u64::from(e.b);
                }
            }
            EventKind::Reanalysis => {
                let track = track_of(e.a);
                out.push(obj(vec![
                    ("name", Json::Str("reanalysis".into())),
                    ("cat", Json::Str("lane".into())),
                    ("ph", Json::Str("i".into())),
                    ("s", Json::Str("t".into())),
                    ("ts", us(e.t_ns)),
                    ("pid", Json::Num(PID_LANES)),
                    ("tid", Json::Num(f64::from(track))),
                    ("args", obj(vec![("analyses", Json::Num(f64::from(e.b)))])),
                ]));
            }
            EventKind::Occupancy => {
                let slot = slots[&split_lane_operand(e.b).0];
                out.push(counter(
                    format!("lanes busy{}", slot_suffix(slot)),
                    lane_operand(slot, 0),
                    e.t_ns,
                    "busy",
                    f64::from(e.a),
                ));
            }
        }
    }
    // Close anything still open at the last seen timestamp.
    for (operand, open) in open_lanes {
        out.push(lane_slice(track_of(operand), open, last_ns, true));
    }
    for (tid, stack) in span_stacks {
        for (id, t0) in stack.into_iter().rev() {
            let mut s = slice(&name_of(id), "span", PID_SPANS, tid, t0, last_ns, vec![]);
            if let Json::Obj(fields) = &mut s {
                if let Some((_, args)) = fields.iter_mut().find(|(k, _)| k == "args") {
                    *args = obj(vec![("unfinished", Json::Bool(true))]);
                }
            }
            out.push(s);
        }
    }
    span_tids.sort_unstable();
    for tid in span_tids {
        out.push(meta_thread(PID_SPANS, tid, format!("thread {tid}")));
    }
    tracks.sort_unstable();
    for track in tracks {
        let (slot, lane) = split_lane_operand(track);
        out.push(meta_thread(
            PID_LANES,
            track,
            format!("lane {lane}{}", slot_suffix(slot)),
        ));
    }

    let ring = event_ring();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(out)),
        ("displayTimeUnit".into(), Json::Str("ns".into())),
        (
            "otherData".into(),
            Json::Obj(vec![
                ("ring_events".into(), Json::Num(events.len() as f64)),
                ("ring_dropped".into(), Json::Num(ring.dropped() as f64)),
                ("ring_capacity".into(), Json::Num(ring.capacity() as f64)),
            ]),
        ),
    ])
}

/// Renders the ring as a Chrome trace and writes it to `path`
/// (pretty-printed, trailing newline).
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    let doc = render_chrome_trace();
    std::fs::write(path, doc.render_pretty() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{lane_operand, record_event, reset_events, set_events};
    use crate::span::SpanGuard;

    fn events_named<'a>(doc: &'a Json, name: &str) -> Vec<&'a Json> {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    }

    #[test]
    fn trace_renders_span_slices_and_lane_timeline() {
        let _g = crate::span::tests_gate();
        crate::span::set_tracing(true);
        set_events(true);
        crate::reset();
        {
            let _root = SpanGuard::enter("trace_test");
            let _pop = SpanGuard::enter("mc_population");
            // Lane 0 runs die 0 to completion; lane 1 stays open.
            record_event(EventKind::LaneSeat, 0, 0, 0.0);
            record_event(EventKind::LaneSeat, 1, 1, 0.0);
            record_event(EventKind::StepAccepted, 0, 3, 1e-12);
            record_event(EventKind::StepAccepted, 0, 2, 2e-12);
            record_event(EventKind::Occupancy, 2, 2, 1.0);
            record_event(EventKind::Reanalysis, 0, 1, 0.0);
            record_event(EventKind::LaneRetire, 0, 0, 0.0);
            record_event(EventKind::LaneRefill, 0, 2, 0.0);
        }
        let doc = render_chrome_trace();
        crate::span::set_tracing(false);
        set_events(false);
        reset_events();

        // Round-trips through the JSON parser.
        let parsed = crate::json::parse(&doc.render_pretty()).expect("trace parses");
        let lane_slices = events_named(&parsed, "mc_sample");
        assert!(!lane_slices.is_empty(), "expected mc_sample lane slices");
        let finished = lane_slices
            .iter()
            .find(|s| s.get("args").and_then(|a| a.get("unfinished")).is_none())
            .expect("finished lane slice");
        assert_eq!(
            finished
                .get("args")
                .and_then(|a| a.get("steps"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            finished
                .get("args")
                .and_then(|a| a.get("newton_iters"))
                .and_then(Json::as_f64),
            Some(5.0)
        );
        // The still-open refill closes as unfinished.
        assert!(lane_slices
            .iter()
            .any(|s| { s.get("args").and_then(|a| a.get("unfinished")).is_some() }));
        // Span slices for the shallow spans.
        assert_eq!(events_named(&parsed, "trace_test").len(), 1);
        assert_eq!(events_named(&parsed, "mc_population").len(), 1);
        // Counter tracks: per-lane busy plus the sampled global.
        assert!(!events_named(&parsed, "lane0 busy").is_empty());
        assert!(!events_named(&parsed, "lanes busy").is_empty());
        assert!(!events_named(&parsed, "reanalysis").is_empty());
        assert_eq!(
            parsed
                .get("otherData")
                .and_then(|o| o.get("ring_dropped"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    /// Two sessions seat the same lane number at overlapping times, then
    /// a third runs after both: the overlapping pair closes cleanly on
    /// two tracks, and the later session reuses the first one's track.
    #[test]
    fn overlapping_sessions_get_their_own_lane_tracks() {
        let _g = crate::span::tests_gate();
        set_events(true);
        reset_events();
        let (s1, s2, s3) = (5, 6, 7);
        for s in [s1, s2] {
            record_event(EventKind::LaneSeat, lane_operand(s, 0), 0, 0.0);
        }
        for s in [s1, s2] {
            record_event(EventKind::StepAccepted, lane_operand(s, 0), 2, 1e-12);
            record_event(EventKind::Occupancy, 1, lane_operand(s, 1), 1.0);
        }
        for s in [s2, s1] {
            record_event(EventKind::LaneRetire, lane_operand(s, 0), 0, 0.0);
        }
        record_event(EventKind::LaneSeat, lane_operand(s3, 0), 1, 0.0);
        record_event(EventKind::LaneRetire, lane_operand(s3, 0), 1, 0.0);
        let doc = render_chrome_trace();
        set_events(false);
        reset_events();

        let slices = events_named(&doc, "mc_sample");
        assert_eq!(slices.len(), 3);
        assert!(slices
            .iter()
            .all(|s| s.get("args").and_then(|a| a.get("unfinished")).is_none()));
        // Slices close in retire order: session 2, session 1, session 3.
        let tids: Vec<f64> = slices
            .iter()
            .map(|s| s.get("tid").and_then(Json::as_f64).expect("tid"))
            .collect();
        assert_ne!(tids[0], tids[1], "overlapping sessions get separate tracks");
        assert_eq!(tids[1], tids[2], "a later session reuses slot 0");
        let names: Vec<&str> = events_named(&doc, "thread_name")
            .iter()
            .filter_map(|m| m.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["lane 0", "lane 0 #1"]);
        assert!(!events_named(&doc, "lane0 busy #1").is_empty());
        assert!(!events_named(&doc, "lanes busy #1").is_empty());
    }

    #[test]
    fn empty_ring_renders_a_valid_document() {
        let _g = crate::span::tests_gate();
        reset_events();
        let doc = render_chrome_trace();
        let parsed = crate::json::parse(&doc.render()).expect("parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("array");
        // Only the two process metadata records.
        assert_eq!(events.len(), 2);
    }
}
