//! Hostile-input tests against a live in-process daemon: every malformed
//! frame must come back as a structured `Error` response (with the
//! connection still usable), and a client vanishing mid-stream must tear
//! its worker usage down instead of panicking the daemon.

use gather_core::cache::CachePolicy;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
use gather_core::sweep::SweepSpec;
use gather_graph::generators::Family;
use gather_service::client::Client;
use gather_service::protocol::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES};
use gather_service::server::{Server, ServerConfig};
use gather_sim::placement::PlacementKind;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

fn spawn_daemon() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers: 2,
        store: None,
        policy: CachePolicy::Off,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

fn stop_daemon(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("join").expect("clean exit");
}

/// Sends raw bytes and reads one `Response` frame back.
fn roundtrip_raw(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    raw: &[u8],
) -> Response {
    writer.write_all(raw).expect("write raw bytes");
    writer.flush().expect("flush");
    read_frame::<Response>(reader)
        .expect("daemon keeps the connection alive")
        .expect("daemon answers")
}

#[test]
fn malformed_oversized_and_unknown_frames_get_structured_errors() {
    let (addr, handle) = spawn_daemon();
    let stream = TcpStream::connect(addr).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut oversized = vec![b'{'; MAX_FRAME_BYTES + 1];
    oversized.push(b'\n');
    // (name, hostile line) — every case must yield Response::Error and
    // leave the connection usable for the next case.
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("malformed JSON", b"{this is not json}\n".to_vec()),
        ("bare garbage", b"hello daemon\n".to_vec()),
        ("unknown request tag", b"{\"LaunchMissiles\":{}}\n".to_vec()),
        (
            "well-formed JSON, wrong shape",
            b"{\"SubmitSweep\":{\"sweep\":42,\"workers\":null}}\n".to_vec(),
        ),
        ("unknown unit tag", b"\"Frobnicate\"\n".to_vec()),
        (
            "repeated key",
            b"{\"Status\":{\"job\":null,\"job\":null}}\n".to_vec(),
        ),
        ("oversized line", oversized),
        ("non-utf8 bytes", b"\xff\xfe\xfd\n".to_vec()),
    ];
    for (name, raw) in cases {
        match roundtrip_raw(&mut reader, &mut writer, &raw) {
            Response::Error { message, .. } => {
                assert!(!message.is_empty(), "{name}: error must say something")
            }
            other => panic!("{name}: expected Error, got {other:?}"),
        }
    }

    // After all that abuse the same connection still serves real work.
    write_frame(&mut writer, &Request::Status { job: None }).expect("write status");
    match read_frame::<Response>(&mut reader)
        .expect("read")
        .expect("frame")
    {
        Response::Progress { .. } => {}
        other => panic!("connection no longer usable, got {other:?}"),
    }

    stop_daemon(addr, handle);
}

#[test]
fn grids_over_the_cell_limit_are_rejected_before_expansion() {
    use gather_service::protocol::MAX_CELLS_PER_SUBMIT;
    let (addr, handle) = spawn_daemon();
    let mut client = Client::connect(addr).expect("connect");

    // A compact frame describing an enormous cartesian product: the daemon
    // must refuse it with a structured error instead of materializing
    // billions of specs (`submit_sweep` never expands client-side).
    let huge = SweepSpec::new()
        .graphs((0..1000).map(|i| GraphSpec::new(Family::Cycle, 8 + (i % 7))))
        .placements((2..12).map(|k| PlacementSpec::new(PlacementKind::UndispersedRandom, k)))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds(0..1000);
    assert!(huge.cells() > MAX_CELLS_PER_SUBMIT);
    match client.submit_sweep(&huge, None) {
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("cell"), "error must name the limit: {msg}");
        }
        Ok(_) => panic!("a {}-cell grid must be rejected", huge.cells()),
    }

    // The connection survives the rejection and still runs real work.
    let small = SweepSpec::new()
        .graph(GraphSpec::new(Family::Cycle, 6))
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithm(AlgorithmSpec::new("faster_gathering"));
    let report = client
        .run_sweep(&small, None)
        .expect("small sweep still runs");
    assert!(report.all_detected_ok());

    stop_daemon(addr, handle);
}

#[test]
fn shutdown_during_an_active_stream_cancels_it_instead_of_hanging() {
    let (addr, handle) = spawn_daemon();

    // A connection streaming a grid too large to finish instantly…
    let sweep = SweepSpec::new()
        .graphs((0..8).map(|i| GraphSpec::new(Family::Cycle, 10 + i)))
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2, 3]);
    let streamer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect streamer");
        // Either the sweep finishes before the shutdown lands (Ok) or the
        // daemon cancels the orphaned job (Remote error) — what must NOT
        // happen is an everlasting hang, which the join below would catch.
        client.run_sweep(&sweep, Some(1)).map(|r| r.rows.len())
    });

    // …while another connection orders a shutdown.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown ack");
    handle
        .join()
        .expect("daemon thread joins")
        .expect("clean exit");

    match streamer.join().expect("streamer thread joins") {
        Ok(rows) => assert_eq!(rows, 48, "a completed sweep must be complete"),
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("cancelled"), "unexpected failure: {msg}");
        }
    }
}

#[test]
fn idle_connections_are_reaped_while_fresh_ones_keep_being_served() {
    // A deliberately twitchy idle timeout so the test stays fast; the
    // default is five minutes.
    let server = Server::bind(ServerConfig {
        workers: 2,
        store: None,
        policy: CachePolicy::Off,
        idle_timeout: Some(std::time::Duration::from_millis(100)),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());

    // A prompt request on a new connection is served fine.
    let stream = TcpStream::connect(addr).expect("connect raw");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_frame(&mut writer, &Request::Status { job: None }).expect("write status");
    match read_frame::<Response>(&mut reader)
        .expect("read")
        .expect("frame")
    {
        Response::Progress { .. } => {}
        other => panic!("expected Progress, got {other:?}"),
    }

    // Then the connection goes quiet past the timeout: the daemon reaps it
    // (handler thread and fd released). From this side that shows up as a
    // failed write (RST) or an EOF/error on the next read — anything but a
    // served response.
    std::thread::sleep(std::time::Duration::from_millis(400));
    if write_frame(&mut writer, &Request::Status { job: None }).is_ok() {
        let reaped = read_frame::<Response>(&mut reader);
        assert!(
            !matches!(reaped, Ok(Some(_))),
            "an idle-reaped connection must not come back to life: {reaped:?}"
        );
    }

    // Reaping one idler never touches the listener: fresh connections are
    // served as if nothing happened.
    let mut client = Client::connect(addr).expect("fresh connection after reap");
    let (_, _, cancelled) = client.status(None).expect("daemon still answers");
    assert!(!cancelled);

    stop_daemon(addr, handle);
}

#[test]
fn frames_split_across_tcp_segments_reassemble_byte_for_byte() {
    use gather_service::protocol::FrameError;

    // One valid Status frame, delivered one byte per TCP segment: the
    // framing layer must reassemble it into the exact same request, and a
    // second frame sent the same way must follow on the same connection.
    // This pins `read_frame` against any "one read == one frame"
    // assumption creeping in — under chaos proxies and slow links a frame
    // routinely arrives in many pieces.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Request::Status { job: None }).expect("encode");
    write_frame(&mut bytes, &Request::Cancel { job: 7 }).expect("encode");
    let writer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        for b in bytes {
            stream.write_all(&[b]).expect("write one byte");
            stream.flush().expect("flush one byte");
        }
        // Keep the socket open until the reader is done, so EOF handling
        // never enters this test.
        stream
    });

    let (peer, _) = listener.accept().expect("accept");
    let mut reader = BufReader::new(peer);
    let first: Request = read_frame(&mut reader)
        .expect("reassembled frame parses")
        .expect("frame present");
    assert!(matches!(first, Request::Status { job: None }), "{first:?}");
    let second: Request = read_frame(&mut reader)
        .expect("second frame parses")
        .expect("frame present");
    assert!(matches!(second, Request::Cancel { job: 7 }), "{second:?}");
    drop(reader);
    drop(writer.join().expect("writer thread"));

    // Same property through the plain BufRead path with a 1-byte buffer:
    // the smallest possible fill_buf granularity still reassembles.
    let mut encoded = Vec::new();
    write_frame(&mut encoded, &Request::Status { job: Some(3) }).expect("encode");
    let mut tiny = BufReader::with_capacity(1, std::io::Cursor::new(encoded));
    let again: Result<Option<Request>, FrameError> = read_frame(&mut tiny);
    assert!(
        matches!(again, Ok(Some(Request::Status { job: Some(3) }))),
        "{again:?}"
    );
}

#[test]
fn a_torn_frame_is_a_transport_error_not_a_parse_error() {
    use gather_service::protocol::FrameError;

    // The peer sends half a frame and closes. The prefix of a valid JSON
    // line can itself be valid JSON (`"Shutdown` is not, but a torn
    // `{"Cancel":{"job":7` could be completed several ways) — so a torn
    // frame must surface as an I/O error (`UnexpectedEof`), never as a
    // parse error and *never* as a successfully parsed prefix. Callers
    // classify I/O errors as retryable transport loss; a parse error
    // means the peer is speaking garbage.
    let mut encoded = Vec::new();
    write_frame(&mut encoded, &Request::Cancel { job: 7 }).expect("encode");

    for cut in [1, encoded.len() / 2, encoded.len() - 1] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let torn = encoded[..cut].to_vec();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&torn).expect("write torn prefix");
            stream.flush().expect("flush");
            // Drop: FIN mid-line.
        });

        let (peer, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(peer);
        let result: Result<Option<Request>, FrameError> = read_frame(&mut reader);
        match result {
            Err(FrameError::Io(e)) => assert_eq!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}: torn line must be UnexpectedEof, got {e:?}"
            ),
            other => panic!("cut at {cut}: expected FrameError::Io(UnexpectedEof), got {other:?}"),
        }
        writer.join().expect("writer thread");
    }

    // A *complete* line followed by EOF is the clean-close case and must
    // stay `Ok(None)` on the next read — torn-frame detection must not
    // misfire on well-behaved disconnects.
    let mut clean = BufReader::new(std::io::Cursor::new(encoded.clone()));
    let parsed: Request = read_frame(&mut clean).expect("parses").expect("present");
    assert!(matches!(parsed, Request::Cancel { job: 7 }));
    let eof: Result<Option<Request>, FrameError> = read_frame(&mut clean);
    assert!(matches!(eof, Ok(None)), "{eof:?}");
}

#[test]
fn mid_stream_disconnect_cancels_the_job_and_daemon_survives() {
    let (addr, handle) = spawn_daemon();

    // A grid big enough that the client can vanish mid-stream.
    let sweep = SweepSpec::new()
        .graphs((0..6).map(|i| GraphSpec::new(Family::Cycle, 8 + i)))
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2, 3]);

    let job = {
        let stream = TcpStream::connect(addr).expect("connect raw");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        write_frame(
            &mut writer,
            &Request::SubmitSweep {
                sweep: sweep.clone(),
                workers: Some(1),
                range: None,
            },
        )
        .expect("submit");
        let accepted: Response = read_frame(&mut reader).expect("read").expect("frame");
        let Response::Accepted { job, .. } = accepted else {
            panic!("expected Accepted, got {accepted:?}");
        };
        // Read one streamed row so the daemon is mid-stream, then vanish:
        // both halves of the socket drop right here.
        let mut first_row = String::new();
        reader.read_line(&mut first_row).expect("one streamed row");
        job
    };

    // The daemon must notice the dead socket on a subsequent write and
    // cancel the job; meanwhile it keeps serving other connections.
    let mut client = Client::connect(addr).expect("daemon still accepts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (_, _, cancelled) = client.status(Some(job)).expect("status of orphaned job");
        if cancelled {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned job was never cancelled"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // And it still runs fresh work to completion afterwards.
    let report = client
        .run_sweep(
            &SweepSpec::new()
                .graph(GraphSpec::new(Family::Cycle, 6))
                .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
                .algorithm(AlgorithmSpec::new("faster_gathering")),
            None,
        )
        .expect("fresh sweep after the orphan");
    assert!(report.all_detected_ok());

    stop_daemon(addr, handle);
}
