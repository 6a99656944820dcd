//! Optional TCP front-end (feature `net`).
//!
//! A deliberately minimal listener: one connection at a time, each
//! speaking exactly the NDJSON protocol of [`ServeSession::run`] —
//! events in, records out, connection closed after `Shutdown` or
//! end-of-stream. The session (and hence engine state, tenant map and
//! counters) persists *across* connections, so a client can connect,
//! stream a batch, disconnect, and a later client resumes where it
//! left off. There is no authentication and no TLS — bind to
//! localhost or trusted networks only.

use std::io::{BufReader, Write};
use std::net::{TcpListener, ToSocketAddrs};

use tdmd_online::PathPricer;

use crate::session::ServeSession;

/// Serves `session` over TCP: binds `addr`, then accepts connections
/// one at a time, running the NDJSON protocol on each until the
/// client disconnects or sends `Shutdown`. Returns after
/// `max_connections` connections have been served (use this to bound
/// tests; pass `u64::MAX` for an effectively unbounded daemon).
///
/// # Errors
/// Propagates bind/accept failures and per-connection I/O errors.
pub fn serve_tcp<P: PathPricer>(
    session: &mut ServeSession<P>,
    addr: impl ToSocketAddrs,
    max_connections: u64,
) -> std::io::Result<()> {
    serve_listener(session, TcpListener::bind(addr)?, max_connections)
}

/// [`serve_tcp`] on an already-bound listener — lets callers bind to
/// port 0 and learn the assigned address before serving.
///
/// # Errors
/// Propagates accept failures and per-connection I/O errors.
pub fn serve_listener<P: PathPricer>(
    session: &mut ServeSession<P>,
    listener: TcpListener,
    max_connections: u64,
) -> std::io::Result<()> {
    let mut served = 0u64;
    while served < max_connections {
        let (stream, _peer) = listener.accept()?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        session.run(reader, &mut writer)?;
        writer.flush()?;
        served += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ServeConfig;
    use std::io::{BufRead, BufReader as StdBufReader};
    use std::net::TcpStream;
    use tdmd_graph::DiGraph;
    use tdmd_online::{HopPricer, OnlineEngine, RepairPolicy};

    #[test]
    fn tcp_roundtrip_speaks_the_ndjson_protocol() {
        let graph = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
        let engine =
            OnlineEngine::new(graph, 0.5, 1, HopPricer::default(), RepairPolicy::default())
                .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let server = std::thread::spawn(move || {
            let mut session = ServeSession::new(engine, ServeConfig::default());
            serve_listener(&mut session, listener, 1).unwrap();
            session.events()
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                concat!(
                    r#"{"Arrive":{"key":1,"rate":4,"path":[0,1,2]}}"#,
                    "\n",
                    r#""Shutdown""#,
                    "\n",
                )
                .as_bytes(),
            )
            .unwrap();
        stream.flush().unwrap();
        let mut lines = Vec::new();
        for line in StdBufReader::new(stream).lines() {
            lines.push(line.unwrap());
        }
        assert!(lines.iter().any(|l| l.contains("\"Placement\"")));
        assert!(lines.last().unwrap().contains("\"Bye\""));
        assert_eq!(server.join().unwrap(), 1);
    }

    #[test]
    fn hostile_lines_over_tcp_are_rejected_and_the_connection_continues() {
        let graph = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
        let engine =
            OnlineEngine::new(graph, 0.5, 1, HopPricer::default(), RepairPolicy::default())
                .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let server = std::thread::spawn(move || {
            let mut session = ServeSession::new(engine, ServeConfig::default());
            serve_listener(&mut session, listener, 1).map(|()| session.events())
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut input = b"\xff\xfe\n".to_vec();
        input.extend("[".repeat(1_000_000).bytes());
        input.extend(b"\n{\"Arrive\":{\"key\":1,\"rate\":4,\"path\":[0,1,2]}}\n");
        stream.write_all(&input).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let lines: Vec<String> = StdBufReader::new(stream)
            .lines()
            .map(Result::unwrap)
            .collect();
        assert!(
            lines[0].starts_with(r#"{"Rejected":{"line":1,"#),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with(r#"{"Rejected":{"line":2,"#),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"Placement\""));
        assert!(lines.last().unwrap().contains("\"Bye\""));
        assert_eq!(server.join().unwrap().unwrap(), 1);
    }
}
