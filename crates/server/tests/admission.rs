//! Admission-control and end-to-end behaviour of the screening daemon:
//! backpressure, per-job caps, graceful drain, and the bit-identity of
//! server-streamed verdicts against the standalone measurement path.

use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use rotsv::variation::ProcessSpread;
use rotsv::{delta_t_population_with_engine, McEngine, TestBench};
use rotsv_obs::{validate_manifest, Json};
use rotsv_server::server::MAX_LINE_BYTES;
use rotsv_server::{Server, ServerConfig};

/// A tiny synchronous line-protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("set read timeout");
        let read_half = stream.try_clone().expect("clone stream");
        Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().expect("flush request");
    }

    fn read_doc(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        rotsv_obs::json::parse(line.trim()).expect("response must be valid JSON")
    }
}

fn ty(doc: &Json) -> &str {
    doc.get("type").and_then(Json::as_str).unwrap_or("")
}

fn small_config() -> ServerConfig {
    ServerConfig {
        lanes: 2,
        workers: 1,
        ..ServerConfig::default()
    }
}

#[test]
fn full_queue_rejects_whole_job() {
    // Capacity of 2 units cannot take a 1-die job (2 units) plus
    // anything; a 2-die job (4 units) must bounce atomically.
    let server = Server::start(ServerConfig {
        queue_cap: 2,
        ..small_config()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr());
    client.send(r#"{"type":"submit","id":1,"n_segments":1,"dies":2}"#);
    let doc = client.read_doc();
    assert_eq!(ty(&doc), "rejected");
    let reason = doc.get("reason").and_then(Json::as_str).unwrap_or("");
    assert!(reason.contains("queue full"), "reason was {reason:?}");
    assert_eq!(doc.get("queue_cap").and_then(Json::as_f64), Some(2.0));
    server.stop().expect("clean shutdown");
}

#[test]
fn oversized_job_hits_die_cap() {
    let server = Server::start(ServerConfig {
        max_dies_per_job: 2,
        ..small_config()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr());
    client.send(r#"{"type":"submit","id":7,"n_segments":1,"dies":3}"#);
    let doc = client.read_doc();
    assert_eq!(ty(&doc), "rejected");
    let reason = doc.get("reason").and_then(Json::as_str).unwrap_or("");
    assert!(reason.contains("per-job cap"), "reason was {reason:?}");
    server.stop().expect("clean shutdown");
}

#[test]
fn graceful_shutdown_flushes_in_flight_job() {
    let server = Server::start(small_config()).expect("server starts");
    let mut client = Client::connect(server.addr());
    client.send(r#"{"type":"submit","id":3,"n_segments":1,"dies":2,"seed":7}"#);
    let admitted = client.read_doc();
    assert_eq!(ty(&admitted), "admitted");
    // Begin the drain while the job's lanes are in flight: every
    // verdict and the manifest trailer must still stream out.
    server.shutdown();
    let mut verdicts = 0;
    let done = loop {
        let doc = client.read_doc();
        match ty(&doc) {
            "verdict" => {
                assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
                verdicts += 1;
            }
            "done" => break doc,
            other => panic!("unexpected response type {other:?}"),
        }
    };
    assert_eq!(verdicts, 2, "one verdict per die");
    assert_eq!(done.get("ok").and_then(Json::as_f64), Some(2.0));
    assert_eq!(done.get("errors").and_then(Json::as_f64), Some(0.0));
    let manifest = done.get("manifest").expect("done carries the manifest");
    let warnings = validate_manifest(manifest).expect("manifest validates");
    // Warnings (e.g. no tracing phases recorded) are acceptable;
    // validation errors are not.
    let _ = warnings;
    server.wait().expect("drain completes");
}

/// A client that streams bytes with no newline cannot grow the daemon's
/// line buffer: at `MAX_LINE_BYTES` it gets one `error` line and its
/// connection closes, the daemon counts the rejection, and another
/// client's job in flight still completes.
#[test]
fn oversized_line_is_rejected_and_other_jobs_complete() {
    let server = Server::start(small_config()).expect("server starts");
    let mut client = Client::connect(server.addr());
    client.send(r#"{"type":"submit","id":4,"n_segments":1,"dies":2,"seed":5}"#);
    assert_eq!(ty(&client.read_doc()), "admitted");

    // Exactly the cap and no newline: the daemon consumes every byte
    // sent, so it closes the connection cleanly after its reply.
    let mut flood = Client::connect(server.addr());
    flood
        .writer
        .write_all(&vec![b'x'; MAX_LINE_BYTES])
        .expect("send an over-long line");
    flood.writer.flush().expect("flush the over-long line");
    let doc = flood.read_doc();
    assert_eq!(ty(&doc), "error");
    let reason = doc.get("reason").and_then(Json::as_str).unwrap_or("");
    assert!(reason.contains("exceeds"), "reason was {reason:?}");
    let mut rest = String::new();
    let n = flood
        .reader
        .read_line(&mut rest)
        .expect("read to the close");
    assert_eq!(n, 0, "connection must close after the error, got {rest:?}");

    let mut verdicts = 0;
    loop {
        let doc = client.read_doc();
        match ty(&doc) {
            "verdict" => {
                assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
                verdicts += 1;
            }
            "done" => break,
            other => panic!("unexpected response type {other:?}"),
        }
    }
    assert_eq!(verdicts, 2, "one verdict per die");
    client.send(r#"{"type":"metrics"}"#);
    let metrics = client.read_doc();
    let text = metrics.get("text").and_then(Json::as_str).unwrap_or("");
    assert!(
        text.contains("rotsv_server_lines_rejected 1"),
        "rejection not counted:\n{text}"
    );
    server.stop().expect("clean shutdown");
}

/// Submits one job and returns `(die index, ΔT)` for every verdict.
fn screen_job(addr: std::net::SocketAddr, id: u64, seed: u64, dies: usize) -> Vec<(usize, f64)> {
    let mut client = Client::connect(addr);
    client.send(&format!(
        r#"{{"type":"submit","id":{id},"n_segments":2,"dies":{dies},"seed":{seed}}}"#
    ));
    assert_eq!(ty(&client.read_doc()), "admitted");
    let mut deltas = Vec::new();
    loop {
        let doc = client.read_doc();
        match ty(&doc) {
            "verdict" => {
                assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
                let die = doc.get("die").and_then(Json::as_f64).expect("die index") as usize;
                let delta = doc.get("delta_t").and_then(Json::as_f64).expect("delta_t");
                deltas.push((die, delta));
            }
            "done" => break,
            other => panic!("unexpected response type {other:?}"),
        }
    }
    deltas.sort_by_key(|(die, _)| *die);
    deltas
}

#[test]
fn interleaved_clients_match_standalone_bit_for_bit() {
    // Two clients share one engine group (same topology and V_DD, the
    // group key ignores seed), so their dies interleave in the same
    // continuous batch. Composition independence says every die's ΔT
    // must still equal a standalone auto-engine run exactly.
    let server = Server::start(ServerConfig {
        lanes: 4,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    const DIES: usize = 3;
    let a = std::thread::spawn(move || screen_job(addr, 1, 11, DIES));
    let b = std::thread::spawn(move || screen_job(addr, 2, 22, DIES));
    let got_a = a.join().expect("client A");
    let got_b = b.join().expect("client B");
    server.stop().expect("clean shutdown");

    let bench = TestBench::fast(2);
    let faults = vec![rotsv::tsv::TsvFault::None; 2];
    for (seed, got) in [(11, &got_a), (22, &got_b)] {
        let standalone = delta_t_population_with_engine(
            &bench,
            1.1,
            &faults,
            &[0],
            ProcessSpread::paper(),
            seed,
            DIES,
            McEngine::Auto,
        )
        .expect("standalone population");
        assert_eq!(standalone.deltas.len(), DIES, "all dies oscillate");
        assert_eq!(got.len(), DIES, "server streamed every die");
        for (die, (got_die, got_delta)) in got.iter().enumerate() {
            assert_eq!(*got_die, die);
            assert_eq!(
                got_delta.to_bits(),
                standalone.deltas[die].to_bits(),
                "die {die} of seed {seed}: server ΔT {} != standalone {}",
                got_delta,
                standalone.deltas[die]
            );
        }
    }
}
