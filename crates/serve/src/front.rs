//! The connection front shared by [`crate::server::Server`] and
//! [`crate::cluster::Router`]: one accept thread, one reader thread per
//! connection, and one shutdown path.
//!
//! The owner supplies a [`Handler`] that acts on each decoded request.
//! The front answers undecodable traffic itself and decides when a
//! connection closes:
//!
//! * a malformed payload (bad JSON, a broken block frame) or a bad
//!   request shape in an intact frame → `bad_request`, the connection
//!   survives;
//! * an oversized length prefix → `bad_request`, then close (the unread
//!   payload cannot be resynchronized);
//! * mid-frame EOF, a closed peer, or a failed write → close quietly;
//! * shutdown → close after the current frame. The flag is checked
//!   after every frame, not only when a read times out, so a peer that
//!   never pauses cannot hold shutdown up. Requests already handed to
//!   the handler are still answered.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    decode_request, write_frame, ErrorCode, FrameError, FrameReader, Request, Response,
};

/// How often blocked reads wake up to poll the shutdown flag.
pub(crate) const READ_POLL: Duration = Duration::from_millis(25);

/// Write half of a connection, shared between its reader thread and
/// whoever answers its requests (the server's workers).
pub(crate) type ConnWriter = Arc<Mutex<TcpStream>>;

pub(crate) fn send_response(writer: &ConnWriter, response: &Response) -> io::Result<()> {
    let json = response.to_json();
    let mut stream = writer.lock().expect("writer poisoned");
    write_frame(&mut *stream, &json)
}

/// What a front's owner does with the traffic it accepts.
pub(crate) trait Handler: Send + Sync + 'static {
    /// The owner's shutdown flag; [`Front::stop`] raises it.
    fn shutdown_flag(&self) -> &AtomicBool;

    /// Act on one decoded request, answering through `writer` now or
    /// later. An `Err` (a failed write to this peer) closes the
    /// connection.
    fn handle(&self, request: Request, writer: &ConnWriter) -> io::Result<()>;

    /// Count one undecodable frame or request.
    fn protocol_error(&self) {}
}

/// A running accept loop and its connection threads.
pub(crate) struct Front<H: Handler> {
    handler: Arc<H>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<H: Handler> Front<H> {
    /// Start accepting on `listener`; threads are named `{name}-accept`
    /// and `{name}-conn`.
    pub(crate) fn start(
        listener: TcpListener,
        name: &'static str,
        max_frame_len: usize,
        handler: Arc<H>,
    ) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept = {
            let handler = Arc::clone(&handler);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, name, max_frame_len, &handler, &conns))?
        };
        Ok(Front {
            handler,
            local_addr,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Raise the shutdown flag, stop accepting, and join every
    /// connection thread. Each reader stops after its current frame.
    pub(crate) fn stop(&mut self) {
        self.handler.shutdown_flag().store(true, Ordering::SeqCst);
        // The accept thread blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns poisoned"));
        for handle in conns {
            let _ = handle.join();
        }
    }
}

fn accept_loop<H: Handler>(
    listener: &TcpListener,
    name: &'static str,
    max_frame_len: usize,
    handler: &Arc<H>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
) {
    for stream in listener.incoming() {
        if handler.shutdown_flag().load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let handler = Arc::clone(handler);
        let spawned = std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || connection_loop(&*handler, stream, max_frame_len));
        if let Ok(handle) = spawned {
            let mut conns = conns.lock().expect("conns poisoned");
            // A thread that has exited keeps its stack mapped until it
            // is joined, so join the finished ones now, not at `stop`.
            for finished in conns.extract_if(.., |h| h.is_finished()) {
                let _ = finished.join();
            }
            conns.push(handle);
        }
    }
}

fn connection_loop<H: Handler>(handler: &H, stream: TcpStream, max_frame_len: usize) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer: ConnWriter = Arc::new(Mutex::new(write_half));
    let mut reader = FrameReader::new(stream);
    let shutdown = handler.shutdown_flag();
    let mut should_abort = || shutdown.load(Ordering::SeqCst);
    loop {
        let answer = match reader.read_payload(max_frame_len, &mut should_abort) {
            Ok(payload) => match decode_request(payload) {
                Ok(request) => {
                    if handler.handle(request, &writer).is_err() {
                        break;
                    }
                    None
                }
                // The frame itself was well-formed, so the stream is
                // still in sync — answer and keep reading.
                Err(e) => Some((
                    Response::error(e.id, ErrorCode::BadRequest, e.message),
                    false,
                )),
            },
            Err(FrameError::TooLarge { len, max }) => Some((
                Response::error(
                    0,
                    ErrorCode::BadRequest,
                    format!("frame of {len} bytes exceeds limit of {max}"),
                ),
                true,
            )),
            Err(FrameError::Truncated { .. }) => {
                handler.protocol_error();
                break;
            }
            // `read_payload` parses nothing, so it never reports `Json`.
            Err(
                FrameError::Closed | FrameError::Aborted | FrameError::Io(_) | FrameError::Json(_),
            ) => break,
        };
        if let Some((response, hang_up)) = answer {
            handler.protocol_error();
            if send_response(&writer, &response).is_err() || hang_up {
                break;
            }
        }
        // A peer that sends without pausing never lets a read time out,
        // so the flag is checked after every frame too. The first frame
        // is always read: bytes a peer sent before shutdown began are
        // still answered or counted.
        if should_abort() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::Shutdown;
    use std::time::Instant;

    /// A handler that answers nothing: the test only opens and closes
    /// connections.
    #[derive(Default)]
    struct Silent(AtomicBool);

    impl Handler for Silent {
        fn shutdown_flag(&self) -> &AtomicBool {
            &self.0
        }

        fn handle(&self, _request: Request, _writer: &ConnWriter) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn finished_connection_threads_are_joined_on_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut front = Front::start(listener, "reap", 1024, Arc::new(Silent::default())).unwrap();
        let held = |front: &Front<Silent>| front.conns.lock().unwrap().len();
        let mut most = 0;
        for _ in 0..200 {
            let mut stream = TcpStream::connect(front.local_addr()).unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            // The front closes its side only when the connection's
            // thread has seen the end of input and is returning, so at
            // most a couple of connection threads ever run at once.
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0);
            let deadline = Instant::now() + Duration::from_secs(5);
            while front.conns.lock().unwrap().iter().any(|h| !h.is_finished()) {
                assert!(Instant::now() < deadline, "a connection thread never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
            most = most.max(held(&front));
        }
        front.stop();
        assert_eq!(held(&front), 0);
        // Without the reaping every one of the 200 handles stays held
        // until `stop`.
        assert!(most <= 2, "the front held {most} connection handles");
    }
}
